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
_ARMIJO_TRIALS = 200  # Armijo trials of one step before descent counts as stalled
_ARMIJO_BATCH = 3  # trials scored per batch; about 2 are needed per step
_PAD = -1e300  # packed-column padding, finite to keep the sort nan-free


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


def _project_columns(packed: np.ndarray, caps: np.ndarray):
    """Batched capped-simplex projection of packed epoch columns.

    Row c of `packed` holds the allocation of epoch column c, padded at
    its end with a large negative value.  Padding projects to 0: on a
    row over its cap theta is positive, so no slot at or below 0 passes
    the threshold test.
    The final rescale guarantees feasibility even when the inputs are
    many orders of magnitude above the caps and theta loses precision.
    """
    clipped = np.maximum(packed, 0.0)
    over = clipped.sum(axis=1) > caps
    if not over.any():
        return clipped
    every = over.all()  # the usual case after a gradient step
    rows = slice(None) if every else over
    x, cap = packed[rows], caps[rows]
    u = np.sort(x, axis=1)[:, ::-1]  # descending; padding sinks to the end
    cssv = np.add.accumulate(u, axis=1) - cap[:, None]
    ks = np.arange(1, x.shape[1] + 1)
    valid = u - cssv / ks > 0
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

    Backtracking is scored speculatively: the steps alpha, alpha/2 and
    alpha/4 are projected in one batched call and priced in one
    `model.power` call, and the first to pass the Armijo test is taken.
    Each trial is scored from its own cells, summed as the sequential loop
    sums its dense n x m table, so the iterates, the step carried forward,
    the 200-trial cap and the stopping rule are that loop's, bit for bit.

    Supported range: small instances with mild power laws.  On N=12
    Monomial(1.5) instances (the benchmark's `crosscheck`) its energy is
    within 2e-8 relative of the optimum, yet the stall test stops it at
    a residual of 1e-6 to 6e-5, so `converged` is True on only 1-2 %.
    On the generator default at N=50 (Shannon) it stops after 6
    iterations at about 1e44 times the optimal energy: an upper bound only.
    """
    if not (tol >= 0 and max_iters >= 0):  # NaN fails, too
        raise ValueError(f"tol and max_iters must be non-negative, got {tol} and {max_iters}")
    decomp = instance.decomposition
    n, m = instance.n, decomp.m
    bits = instance.bits()
    mask = np.zeros((n, m), dtype=bool)
    mask[decomp.pairs()] = True

    # An allocation is its k feasible cells, column by column, then the
    # sentinels 0 (cells off the mask) and _PAD (padding of the packed
    # C x nmax columns); `pack` and `dense` gather those from row b of a batch.
    live_cols = np.flatnonzero(decomp.coverage)
    lens = decomp.coverage[live_cols]
    caps = decomp.lengths[live_cols]
    slot = np.arange(lens.max(initial=1)) < lens[:, None]
    col, row = np.nonzero(mask[:, live_cols].T)  # column-major, as `slot`
    k, c = len(row), len(live_cols)
    pack = np.full(slot.shape, k + 1)
    pack[slot] = np.arange(k)
    dense = np.full((n, m), k)
    dense[row, live_cols[col]] = np.arange(k)
    offsets = np.arange(_ARMIJO_BATCH)[:, None, None] * (k + 2)
    pack, dense = (pack + offsets).reshape(-1, slot.shape[1]), dense + offsets
    unpack = np.flatnonzero(slot)
    batch_caps = np.tile(caps, _ARMIJO_BATCH)
    sentinels = np.tile([0.0, _PAD], (_ARMIJO_BATCH, 1))
    grad_rows = np.append(row, [0, 0])

    def project(x: np.ndarray, grad: np.ndarray, steps: list[float]) -> np.ndarray:
        """The projections of x - step * grad, one row per step."""
        b = len(steps)
        trial = x - np.multiply.outer(steps, grad)
        packed = _project_columns(trial.take(pack[: b * c]), batch_caps[: b * c])
        return np.concatenate((packed.reshape(b, -1).take(unpack, axis=1), sentinels[:b]), axis=1)

    def score(rows: np.ndarray):
        """Packet totals and energies; a total under TIME_FLOOR gives inf."""
        T = rows.take(dense[: len(rows)]).sum(axis=2)
        floored = np.maximum(T, TIME_FLOOR)
        energies = (floored * model.power(bits / floored)).sum(axis=1)
        if np.fmin.reduce(T, axis=None) < TIME_FLOOR:  # rare: skip the row test
            energies[(T < TIME_FLOOR).any(axis=1)] = math.inf
        return T, energies

    def gradient(T: np.ndarray) -> np.ndarray:
        grad = -model.g(bits / np.maximum(T, TIME_FLOOR)).take(grad_rows)
        grad[k:] = 0.0
        return grad

    x = np.concatenate((np.repeat(caps / lens, lens), (0.0, _PAD)))
    alpha = 1.0
    iterations = 0
    small_streak = 0
    cap_scale = float(caps.max()) if len(caps) else 1.0
    stalled = False
    with np.errstate(over="ignore"):
        T, energies = score(x[None])
        T, energy = T[0], float(energies[0])
        history = [energy] if track_history else None
        while iterations < max_iters:
            grad = gradient(T)
            # First trial step: adaptive, but never so large that a single
            # step moves an entry further than the biggest epoch.
            gmax = float(np.abs(grad).max())
            alpha = min(1.0, alpha * 2.0, cap_scale / gmax if gmax > 0 else 1.0)
            for tried in range(0, _ARMIJO_TRIALS, _ARMIJO_BATCH):
                steps = [alpha]
                while len(steps) < min(_ARMIJO_BATCH, _ARMIJO_TRIALS - tried):
                    steps.append(steps[-1] * 0.5)
                cands = project(x, grad, steps)
                cand_T, cand_energies = score(cands)
                descents = ((cands - x) * grad).take(dense[: len(steps)])
                bounds = energy + ARMIJO_C * descents.reshape(len(steps), -1).sum(axis=1)
                passed = cand_energies <= bounds
                first = int(passed.argmax())
                if passed[first]:
                    break
                alpha = steps[-1] * 0.5
            else:
                stalled = True  # no float-visible descent left
                break
            alpha, cand_energy = steps[first], float(cand_energies[first])
            rel_decrease = (energy - cand_energy) / max(abs(cand_energy), 1e-300)
            x, T, energy = cands[first], cand_T[first], cand_energy
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
    grad = gradient(T)
    gmax = float(np.abs(grad).max())
    probe = min(1.0, cap_scale / gmax) if gmax > 0 else 1.0
    pg_map = x[: k + 1] - project(x, grad, [probe])[0, : k + 1]
    residual = float(np.abs(pg_map).max() / (1.0 + np.abs(x[: k + 1]).max()))
    converged = stalled and residual <= 1e-6
    tau = x.take(dense[0])
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
    lengths = decomp.lengths

    live = np.flatnonzero(decomp.coverage).tolist()  # the live epoch columns
    pair_rows, pair_cols = decomp.pairs()
    per_epoch: list[tuple[int, np.ndarray, np.ndarray]] = []
    total_combos = 1
    for c in live:
        rows = pair_rows[pair_cols == c]
        combos = _compositions(resolution, len(rows))
        total_combos *= len(combos)
        if total_combos > GRID_COMBO_CAP:
            raise TooLarge(
                f"grid enumeration needs more than {GRID_COMBO_CAP} combinations"
            )
        per_epoch.append((c, rows, combos * (lengths[c] / resolution)))

    totals = np.zeros((1, n))
    combo_counts = [len(c) for _, _, c in per_epoch]
    for _, rows, alloc in per_epoch:
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
    for (c, rows, alloc), count in zip(reversed(per_epoch), reversed(combo_counts)):
        rem, k = divmod(rem, count)
        tau[rows, c] = alloc[k]
    T_best = tau.sum(axis=1)
    spacing = max(lengths[c] / resolution for c in live) if live else 0.0
    return OracleSolution(
        tau=tau,
        total_times=T_best,
        rates=bits / T_best,
        energy=float(energies[best]),
        iterations=len(energies),
        residual=spacing,
        converged=True,
    )
