"""floattext.reprs writes each float as repr does, byte for byte.

The vector path takes blocks of at least _SHORT values, so the samples are
longer but where a test says otherwise; where the vector path should
certify the values, a test also counts those it hands to repr."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohstates
from cohstates import cli, floattext
from cohstates.floattext import reprs

ROOT = Path(__file__).resolve().parents[1]


def expected(x) -> list[str]:
    return [repr(v) for v in np.asarray(x, dtype=float).ravel().tolist()]


@pytest.fixture
def handed_to_repr(monkeypatch):
    """The values floattext passes to repr, collected as it runs."""
    seen = []

    def counting(v):
        seen.append(v)
        return repr(v)
    monkeypatch.setattr(floattext, "repr", counting, raising=False)
    return seen


def test_every_float_the_digest_requests_print(monkeypatch, handed_to_repr):
    # the table floats of the 596 requests and two |l| = 355 reports whose
    # output .github/digest.py hashes, as _chunks hands them to reprs
    spec = importlib.util.spec_from_file_location(
        "digest", ROOT / ".github" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(digest)
    finally:
        sys.path[:] = path
    seen = []

    def spy(values):
        seen.append(np.array(values, dtype=float))
        return reprs(values)
    monkeypatch.setattr(cli, "reprs", spy)
    for _, requests in digest.workload_groups():
        for argv in requests:
            digest.run(argv)
    for extra in digest.FORMATS.values():
        assert digest.run(digest.LARGEST + extra)[0] == 0
    x = np.concatenate(seen)
    handed_to_repr.clear()
    assert reprs(x) == expected(x)
    assert len(x) > 600_000
    # repr writes only what it writes in exponent notation, below 1e-4 (the
    # rotator's probabilities), and powers of two
    assert all("e" in repr(v) or abs(math.frexp(v)[0]) == 0.5
               for v in handed_to_repr)


def test_random_bit_patterns():
    rng = np.random.default_rng(42)
    x = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert reprs(x.view(np.float64)) == expected(x.view(np.float64))


def random_doubles(rng, exponents, n=10**6) -> np.ndarray:
    """Every sign and mantissa but 0, at the given binary exponents."""
    mantissa = rng.integers(1, 2**52, n, dtype=np.uint64)
    exponent = (1023 + rng.choice(exponents, n)).astype(np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    return (sign << np.uint64(63) | exponent << np.uint64(52)
            | mantissa).view(np.float64)


def test_random_doubles_in_the_vector_paths_range(handed_to_repr):
    # [2^-14, 2^52); near 2^52, with few fraction bits, many doubles are
    # exact ties between two 17-digit decimals, which go to repr
    x = random_doubles(np.random.default_rng(43), np.arange(-14, 52))
    assert reprs(x) == expected(x)
    assert len(handed_to_repr) < 0.05 * len(x)
    # below 2^21 an exact tie needs the 21 low bits of the mantissa zero,
    # and none is drawn: only |v| < 1e-4, in exponent notation, goes to repr
    handed_to_repr.clear()
    x = random_doubles(np.random.default_rng(44), np.arange(-14, 21))
    assert reprs(x) == expected(x)
    assert len(handed_to_repr) == np.count_nonzero(np.abs(x) < 1e-4)


def test_powers_of_two_subnormals_and_signed_zeros():
    e = np.arange(-1074, 1024)
    powers = np.ldexp(1.0, e)
    rng = np.random.default_rng(45)
    subnormal = rng.integers(1, 2**52, 10**5, dtype=np.uint64).view(
        np.float64)
    x = np.concatenate([powers, -powers, subnormal, -subnormal,
                        [5e-324, -5e-324, 2.2250738585072009e-308,
                         0.0, -0.0] * 60])
    assert reprs(x) == expected(x)
    assert reprs(np.array([0.0, -0.0] * 200)) == ["0.0", "-0.0"] * 200


def test_where_repr_changes_notation():
    # 1e-4 is the smallest fixed-notation decimal and 1e16 the smallest in
    # exponent notation; 2^-14 and 2^52 bound the vector path
    values = []
    for edge in (1e-4, 1e16, 2.0**-14, 2.0**52, 1.0):
        for way in (math.inf, -math.inf):
            v = edge
            for _ in range(40):
                values.append(v)
                v = math.nextafter(v, way)
    x = np.array(values)
    x = np.concatenate([x, -x])
    assert reprs(x) == expected(x)


def test_short_decimals_and_exact_ties(handed_to_repr):
    # short decimals: a shorter decimal than 17 digits is in the interval
    k = np.arange(-50_000, 50_000)
    x = np.concatenate([k / 10.0**p for p in range(8)])
    assert reprs(x) == expected(x)
    # v 10^K halfway between two integers, both in v's interval: an exact
    # tie, which repr breaks to the even one, and the vector path leaves
    # to it
    handed_to_repr.clear()
    ties = 2.0**50 + 0.25 + 2 * np.arange(300)
    assert reprs(ties) == expected(ties)
    assert reprs(ties)[:2] == ["1125899906842624.2", "1125899906842626.2"]
    assert len(handed_to_repr) >= 300


def test_samples_shaped_like_a_reports_columns(handed_to_repr):
    # log_mag: logs of amplitudes, from about -1e5 up to hundreds; phase:
    # (-pi, pi], with its exact quadrant values
    rng = np.random.default_rng(46)
    log_mag = np.concatenate([rng.normal(-40.0, 30.0, 300_000),
                              rng.normal(0.0, 1.0, 100_000),
                              -rng.uniform(0.0, 1e5, 100_000)])
    phase = np.concatenate([rng.uniform(-math.pi, math.pi, 400_000),
                            [0.0, math.pi, 0.5 * math.pi,
                             -0.5 * math.pi] * 1000])
    for x in (log_mag, phase):
        handed_to_repr.clear()
        assert reprs(x) == expected(x)
        assert len(handed_to_repr) < 1e-4 * len(x)


@pytest.mark.parametrize("values", [
    [], [1.5], np.linspace(-3.0, 3.0, 255), np.linspace(-3.0, 3.0, 4097),
    np.linspace(0.1, 7.0, 600).reshape(20, 30),
    np.linspace(0.1, 7.0, 600, dtype=np.float32), [math.nan, math.inf]])
def test_any_length_shape_and_float_type(values):
    # float32 values print as the doubles they are, as float() gives them
    assert reprs(values) == expected(values)


def test_importing_the_cli_forms_no_table():
    # the tables are formed on the first block, never at import, so that
    # importing the CLI costs what it did
    env = {**os.environ,
           "PYTHONPATH": str(Path(cohstates.__file__).resolve().parents[1])}
    code = ("import numpy as np, cohstates.cli as c, cohstates.floattext as f;"
            "a = f._tables.cache_info().currsize;"
            "c.main(['circle', '--phi', '0', '--l', '2']);"
            "b = f._tables.cache_info().currsize;"
            "f.reprs(np.linspace(0.5, 2.5, 300));"
            "print(a, b, f._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "0", "1"]
