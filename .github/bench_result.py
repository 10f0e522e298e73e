"""Exit 1 unless a benchmark run's last output line is its JSON result with
every request correct and none failed.

    python perfbench/run.py --workload verify --seed 0 --seconds 2 > out.txt
    python .github/bench_result.py out.txt
"""

import json
import sys


def main(path: str) -> int:
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{path}: the last line is not a JSON result")
        return 1
    print(f"{path}: correct={result.get('correct')} "
          f"attempted={result.get('attempted')} failed={result.get('failed')}")
    ok = result.get("correct") is True and result.get("failed") == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
