"""Independent reference solvers for the scheduling program.

Both solvers work directly on the epoch allocation table: minimize
sum_i T_i * f(B_i / T_i) over non-negative allocations supported on
each packet's feasible epochs, with every epoch handing out at most its
length.  The projected-gradient solver handles moderate sizes; the
exhaustive grid search handles tiny instances and bounds the
discretization error of everything else.  Neither shares any code with
the scheduling algorithm beyond the power model itself, so agreement
between the two paths is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Instance
from .power import PowerModel

ARMIJO_C = 1e-4
TIME_FLOOR = 1e-12  # gradient evaluation floor; reported values are unfloored
GRID_COMBO_CAP = 5_000_000


class TooLarge(ValueError):
    """The grid enumeration would exceed the combinatorial guard."""


@dataclass
class OracleSolution:
    """An allocation table with its derived totals, rates and energy.

    `converged` is False when the solver hit its iteration budget with
    the tolerance unmet; the solution is still a valid upper bound.
    `residual` estimates the remaining optimality gap (projected
    gradient: stationarity norm; grid: the grid spacing).
    """

    tau: np.ndarray
    total_times: np.ndarray
    rates: np.ndarray
    energy: float
    iterations: int
    residual: float
    converged: bool
    energy_history: np.ndarray | None = None


def _project_columns(packed: np.ndarray, caps: np.ndarray, lens: np.ndarray):
    """Batched capped-simplex projection of packed epoch columns.

    packed[c, :lens[c]] holds the allocation of epoch column c; slots
    past lens[c] are padding at a large negative value and project to 0.
    The final rescale guarantees feasibility even when the inputs are
    many orders of magnitude above the caps and theta loses precision.
    """
    clipped = np.maximum(packed, 0.0)
    over = clipped.sum(axis=1) > caps
    if not over.any():
        return clipped
    every = over.all()  # the usual case after a gradient step
    rows = slice(None) if every else over
    x, cap, ln = packed[rows], caps[rows], lens[rows]
    u = np.sort(x, axis=1)[:, ::-1]  # descending; padding sinks to the end
    cssv = np.add.accumulate(u, axis=1) - cap[:, None]
    ks = np.arange(1, x.shape[1] + 1)
    valid = (u - cssv / ks > 0) & (ks <= ln[:, None])
    k = np.where(valid, ks, 1).max(axis=1)
    theta = cssv[np.arange(len(x)), k - 1] / k
    proj = np.maximum(x - theta[:, None], 0.0)
    psums = proj.sum(axis=1)
    bad = psums > cap
    if bad.any():
        proj[bad] *= (cap[bad] / psums[bad])[:, None]
    if every:
        return proj
    clipped[over] = proj
    return clipped


def solve_projected_gradient(
    instance: Instance,
    model: PowerModel,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    track_history: bool = False,
) -> OracleSolution:
    """Projected gradient descent with Armijo backtracking.

    Starts from the proportional split (each epoch shared equally among
    its feasible packets), steps along the marginal-energy gradient,
    and projects each epoch column back onto its capped simplex.  Stops
    when an accepted step decreases energy by less than `tol`
    relatively, or at `max_iters` (then flagged unconverged).

    Supported range: small instances with mild power laws.  On N=12
    Monomial(1.5) instances (the benchmark's `crosscheck`) its energy is
    within 2e-8 relative of the optimum, yet the stall test stops it at
    a residual of 1e-6 to 6e-5, so `converged` is True on only 1-2 %.
    On the generator default at N=50 (Shannon) it stops after 6
    iterations at about 1e44 times the optimal energy: an upper bound only.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    decomp = instance.decomposition
    n, m = instance.n, decomp.m
    bits = instance.bits()
    mask = np.zeros((n, m), dtype=bool)
    mask[decomp.pairs()] = True

    # Epoch columns packed as rows of a C x nmax table: column c's
    # feasible packets in slots [0, lens[c]), `flat` their cells in tau.
    live_cols = np.flatnonzero(mask.any(axis=0))
    lens = mask[:, live_cols].sum(axis=0)
    caps = decomp.epoch_lengths()[live_cols]
    slot = np.arange(lens.max(initial=1)) < lens[:, None]
    col, row = np.nonzero(mask[:, live_cols].T)  # column-major, as `slot`
    flat = row * m + live_cols[col]
    fill = np.full(slot.shape, -1e300)  # finite: keeps the sort nan-free

    def energy_of(tau: np.ndarray) -> float:
        T = tau.sum(axis=1)
        if (T < TIME_FLOOR).any():
            return math.inf
        with np.errstate(over="ignore"):
            return float(np.sum(T * model.power(bits / T)))

    def project(tau: np.ndarray) -> np.ndarray:
        packed = fill.copy()
        packed[slot] = tau.ravel()[flat]
        out = np.zeros(n * m)
        out[flat] = _project_columns(packed, caps, lens)[slot]
        return out.reshape(n, m)

    tau = np.zeros((n, m))
    tau.put(flat, np.repeat(caps / lens, lens))

    energy = energy_of(tau)
    history = [energy] if track_history else None
    alpha = 1.0
    iterations = 0
    small_streak = 0

    def gradient(tau: np.ndarray) -> np.ndarray:
        T = np.maximum(tau.sum(axis=1), TIME_FLOOR)
        gvals = np.asarray(model.g(bits / T))
        return np.where(mask, -gvals[:, None], 0.0)

    cap_scale = float(caps.max()) if len(caps) else 1.0
    stalled = False
    while iterations < max_iters:
        grad = gradient(tau)
        # First trial step: adaptive, but never so large that a single
        # step moves an entry further than the biggest epoch.
        gmax = float(np.abs(grad).max())
        alpha = min(1.0, alpha * 2.0, cap_scale / gmax if gmax > 0 else 1.0)
        for _ in range(200):
            cand = project(tau - alpha * grad)
            cand_energy = energy_of(cand)
            decrease_bound = ARMIJO_C * float(np.sum(grad * (cand - tau)))
            if cand_energy <= energy + decrease_bound:
                break
            alpha *= 0.5
        else:
            stalled = True  # no float-visible descent left
            break
        rel_decrease = (energy - cand_energy) / max(abs(cand_energy), 1e-300)
        tau, energy = cand, cand_energy
        iterations += 1
        if history is not None:
            history.append(energy)
        # Terminate on sustained stalls, not a single slow step.
        small_streak = small_streak + 1 if rel_decrease < tol else 0
        if small_streak >= 5:
            stalled = True
            break

    # Stationarity probe at a step size matched to the gradient scale:
    # a true optimum is a fixed point of the projected step for any
    # step size, while a float-starved stall (one packet's energy term
    # drowning the others) leaves a visible displacement.
    grad = gradient(tau)
    gmax = float(np.abs(grad).max())
    probe = min(1.0, cap_scale / gmax) if gmax > 0 else 1.0
    pg_map = tau - project(tau - probe * grad)
    residual = float(np.abs(pg_map).max() / (1.0 + np.abs(tau).max()))
    converged = stalled and residual <= 1e-6
    T = tau.sum(axis=1)
    rates = np.where(T > 0, bits / np.maximum(T, TIME_FLOOR), np.inf)
    return OracleSolution(
        tau=tau,
        total_times=T,
        rates=rates,
        energy=energy,
        iterations=iterations,
        residual=residual,
        converged=converged,
        energy_history=np.array(history) if history is not None else None,
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All length-`parts` tuples of non-negative ints summing to `total`.

    Stars and bars: each combination of bar positions among
    total + parts - 1 slots yields one composition.
    """
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    combos = itertools.combinations(range(total + parts - 1), parts - 1)
    bars = np.fromiter(
        (b for combo in combos for b in combo), dtype=np.int64
    ).reshape(-1, parts - 1)
    first = bars[:, 0]
    mids = np.diff(bars, axis=1) - 1
    last = total + parts - 2 - bars[:, -1]
    return np.concatenate([first[:, None], mids, last[:, None]], axis=1)


def solve_grid(instance: Instance, model: PowerModel, resolution: int) -> OracleSolution:
    """Exhaustive search over per-epoch simplex grids.

    Each transmittable epoch's length is split among its feasible
    packets in multiples of length/resolution; every combination across
    epochs is priced and the best kept.  Guarded to tiny instances
    (N <= 3, M <= 5, and a cap on total combinations).
    """
    if resolution < 10:
        raise ValueError(f"resolution must be at least 10, got {resolution}")
    decomp = instance.decomposition
    n, m = instance.n, decomp.m
    if n > 3 or m > 5:
        raise TooLarge(f"grid oracle handles N <= 3, M <= 5; got N={n}, M={m}")
    bits = instance.bits()
    lengths = decomp.epoch_lengths()

    live = decomp.live_epochs()
    pair_rows, pair_cols = decomp.pairs()
    per_epoch: list[tuple[int, np.ndarray, np.ndarray]] = []
    total_combos = 1
    for j in live:
        rows = pair_rows[pair_cols == j - 1]
        combos = _compositions(resolution, len(rows))
        total_combos *= len(combos)
        if total_combos > GRID_COMBO_CAP:
            raise TooLarge(
                f"grid enumeration needs more than {GRID_COMBO_CAP} combinations"
            )
        per_epoch.append((j, rows, combos * (lengths[j - 1] / resolution)))

    totals = np.zeros((1, n))
    combo_counts = [len(c) for _, _, c in per_epoch]
    for j, rows, alloc in per_epoch:
        contrib = np.zeros((len(alloc), n))
        contrib[:, rows] = alloc
        totals = (totals[:, None, :] + contrib[None, :, :]).reshape(-1, n)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        T = totals
        ok = np.all(T > 0, axis=1)
        energies = np.full(len(T), np.inf)
        if ok.any():
            Tok = T[ok]
            energies[ok] = np.sum(Tok * model.power(bits[None, :] / Tok), axis=1)
    best = int(np.argmin(energies))
    if not np.isfinite(energies[best]):
        raise RuntimeError("no feasible grid point found")

    # Decode the flat index back into one combo per epoch.
    tau = np.zeros((n, m))
    rem = best
    for (j, rows, alloc), count in zip(reversed(per_epoch), reversed(combo_counts)):
        rem, k = divmod(rem, count)
        tau[rows, j - 1] = alloc[k]
    T_best = tau.sum(axis=1)
    spacing = max(lengths[j - 1] / resolution for j in live) if live else 0.0
    return OracleSolution(
        tau=tau,
        total_times=T_best,
        rates=bits / T_best,
        energy=float(energies[best]),
        iterations=len(energies),
        residual=spacing,
        converged=True,
    )
