"""Two-component spinor operators over the representation space.

The position matrix V = sigma.X / r, the Dirac-type operator
K = -(sigma.J + 1), the exact exponential e^{-K}, and their composition
e^{-K} V give a third, fully independent route to the coherent-state
generators: the i-th generator is recovered as (1/2) Tr(sigma_i e^{-K} V).

sigma.J leaves each (j, total-m) pair of basis vectors invariant, so e^{-K}
is evaluated block by block from the two exact eigenvalues j and -(j+1); no
series truncation is involved anywhere in this module.  Each operator is a
two-component BandTable: block (row, col) of the 2x2 operator matrix is the
bands keyed (dj, dm, row, col), and _entry reads it back as a one-component
table.  No two-component state is ever built.
"""

from __future__ import annotations

import numpy as np

from .repspace import BandTable, grid, identity_table, operator_table

__all__ = [
    "v_table",
    "sigma_dot_table",
    "k_table",
    "exp_minus_k_table",
    "z_matrix_entries",
    "z_from_matrix_tables",
]


def _entry(t: BandTable, row: int, col: int) -> BandTable:
    """Block (row, col) of a spinor table as a one-component table."""
    return BandTable({(dj, dm, 0, 0): c
                      for (dj, dm, r, k), c in t.bands.items()
                      if (r, k) == (row, col)}, t.j_cut)


def sigma_dot_table(vector: str, j_cut: int) -> BandTable:
    """sigma.A = [[A3, A-], [A+, -A3]] for A = J or the position operator X
    at r = 1; block (row, col) sends component col to component row."""
    a3 = operator_table(vector + "3", j_cut)
    blocks = {(0, 0): a3, (0, 1): operator_table(vector + "minus", j_cut),
              (1, 0): operator_table(vector + "plus", j_cut), (1, 1): -1.0 * a3}
    return BandTable({(dj, dm, row, col): c
                      for (row, col), t in blocks.items()
                      for (dj, dm, _, _), c in t.bands.items()}, j_cut)


def v_table(j_cut: int) -> BandTable:
    """V = sigma.X / r, which does not depend on r."""
    return sigma_dot_table("X", j_cut)


def k_table(j_cut: int) -> BandTable:
    """K = -(sigma.J + 1)."""
    return -1.0 * (sigma_dot_table("J", j_cut) + identity_table(j_cut, 2))


def _expk_entries(j: np.ndarray, mu: np.ndarray) -> tuple:
    """2x2 block of e^{-K} = e * e^{sigma.J} on span{|j,mu> up, |j,mu+1> down}.

    The block of sigma.J is [[mu, c], [c, -(mu+1)]] with
    c = sqrt((j-mu)(j+mu+1)); its eigenvalues are j and -(j+1), so the
    exponential follows from the two spectral projectors.  Returns the
    entries (uu, ud, dd), each a two-term sum of e^{j+1} and e^{-j} weights:
        uu = ((j+1+mu) e^{j+1} + (j-mu) e^{-j}) / (2j+1)
        ud = c (e^{j+1} - e^{-j}) / (2j+1)
        dd = ((j-mu) e^{j+1} + (j+1+mu) e^{-j}) / (2j+1)
    """
    den = 2.0 * j + 1.0
    up, down = np.exp(j + 1.0), np.exp(-j)
    c = np.sqrt(np.maximum((j - mu) * (j + mu + 1), 0))
    return (((j + 1 + mu) * up + (j - mu) * down) / den,
            c * (up - down) / den,
            ((j - mu) * up + (j + 1 + mu) * down) / den)


@np.errstate(over="ignore", invalid="ignore")    # left to the range guard
def exp_minus_k_table(j_cut: int) -> BandTable:
    """Exact e^{-K} from the invariant 2x2 blocks of sigma.J.

    An up vector |j, m> is the first vector of the block with mu = m, a down
    vector |j, m> the second vector of the block with mu = m - 1.
    """
    j, m = grid(j_cut)
    e_uu, e_ud, _ = _expk_entries(j, m)
    _, e_du, e_dd = _expk_entries(j, m - 1)
    return BandTable({(0, 0, 0, 0): e_uu, (0, 0, 1, 1): e_dd,
                      (0, 1, 1, 0): e_ud, (0, -1, 0, 1): e_du}, j_cut)


def z_matrix_entries(j_cut: int) -> tuple:
    """The operator-valued entries (A, B, C, D) of the polar-decomposed
    generator matrix e^{-K} V = [[A, B], [C, D]]."""
    t = exp_minus_k_table(j_cut) @ v_table(j_cut)
    return _entry(t, 0, 0), _entry(t, 0, 1), _entry(t, 1, 0), _entry(t, 1, 1)


def z_from_matrix_tables(entries: tuple) -> list[BandTable]:
    """The generators [Z1, Z2, Z3], Z_i = (1/2) Tr(sigma_i e^{-K} V), from
    the entries of z_matrix_entries: Z1 = (B + C)/2, Z2 = i(B - C)/2,
    Z3 = (A - D)/2."""
    a, b, c, d = entries
    return [0.5 * (b + c), 0.5j * (b - c), 0.5 * (a - d)]
