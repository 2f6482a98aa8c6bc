"""Instance builders: worked examples, control-system integration, random generation.

The first two builders encode coincidence patterns of piecewise-linear
signals on a unit grid; cell tokens are endpoint-value pairs, so two cells
are equal exactly when the underlying functions agree on the cell.  The
control-system builders encode step functions that are constant on each
half-open-left cell; terminal states come from exact cell-wise quadrature.

All payloads are rationals rendered canonically, so token equality and exact
numeric equality coincide.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ValidationError
from .multifunction import Instance, Multifunction, is_total, mf_by_names
from .nonanticipation import greatest_na
from .signals import (
    ROLE_DISTURBANCE,
    ROLE_TRAJECTORY,
    Signal,
    SignalFamily,
)
from .timebase import TimeGrid, grid


@dataclass(frozen=True)
class ControlSystem:
    """Scalar integrator dynamics over a grid: the state moves by (u ± v) per cell.

    `levels` lists the admissible constant control values per cell; the
    disturbance family is explicit.  `dynamics` is "u+v" or "u-v".
    """

    grid: TimeGrid
    levels: tuple[Fraction, ...]
    disturbances: SignalFamily
    dynamics: str
    x0: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValidationError("a control system needs at least one control level")
        if self.dynamics not in ("u+v", "u-v"):
            raise ValidationError(f"unknown dynamics {self.dynamics!r}")
        if self.disturbances.role != ROLE_DISTURBANCE:
            raise ValidationError("control-system disturbances need the disturbance role")
        if self.disturbances.width != self.grid.cells:
            raise ValidationError("disturbance signals do not fit the grid")


@dataclass(frozen=True)
class RhoSearchResult:
    """Outcome of the guaranteed-result scan.

    `rho_star` is the least candidate whose responses still admit a total
    non-anticipative multiselector; `witness` is that multiselector.
    """

    rho_star: Fraction
    candidates: tuple[Fraction, ...]
    witness: Multifunction


def _cell_value(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cell token {token!r} carries no rational payload") from None


def integrate(sys: ControlSystem, u: Signal, v: Signal) -> Fraction:
    """Exact terminal state from cell-wise quadrature of the chosen dynamics."""
    widths = sys.grid.widths()
    if len(u.cells) != len(widths) or len(v.cells) != len(widths):
        raise ValidationError("signals do not fit the system grid")
    sign = 1 if sys.dynamics == "u+v" else -1
    x = sys.x0
    for uc, vc, w in zip(u.cells, v.cells, widths):
        x += (_cell_value(uc) + sign * _cell_value(vc)) * w
    return x


# ---------------------------------------------------------------------------
# Worked example instances


def build_example1() -> tuple[Instance, Multifunction]:
    """Three disturbances and three trajectories whose projections are order-incomparable.

    The symbol table fixes the coincidence pattern: all disturbances share
    cell 0, the last two also share cell 1; the first two trajectories share
    cell 0, and no two trajectories agree through cell 1.
    """
    g = grid(0, 1, 2, 3)
    omega = SignalFamily(
        ROLE_DISTURBANCE,
        ("w1", "w2", "w3"),
        (Signal(("p", "q", "r")), Signal(("p", "s", "t")), Signal(("p", "s", "u"))),
    )
    z = SignalFamily(
        ROLE_TRAJECTORY,
        ("h1", "h2", "h3"),
        (Signal(("a", "b", "x")), Signal(("a", "c", "y")), Signal(("d", "e", "z"))),
    )
    inst = Instance(g, omega, z)
    beta = mf_by_names(
        inst,
        {"w1": ("h1", "h2"), "w2": ("h1", "h2", "h3"), "w3": ("h2", "h3")},
    )
    return inst, beta


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(c) for c in value)
    return str(value)


def _piecewise_linear_cells(fn: Callable[[Fraction], object], stamps) -> tuple[str, ...]:
    """Token per cell from the endpoint values; exact for functions affine on each cell."""
    samples = [fn(t) for t in stamps]
    return tuple(f"{_fmt(a)}|{_fmt(b)}" for a, b in zip(samples, samples[1:]))


def build_example2() -> tuple[Instance, Multifunction]:
    """Four ramp disturbances against twelve two-dimensional ramp trajectories.

    The projections at the one-cell and two-cell prefixes do not commute;
    composing them largest-first gives the chain-non-anticipative greatest
    multiselector.
    """
    g = grid(0, 1, 2, 3)
    directions = {1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1)}

    def omega_fn(i: int, j: int):
        sign = Fraction(-1 if i == 1 else 1)
        return lambda t: sign * max(Fraction(0), t - j)

    def z_fn(i: int, j: int):
        ax, ay = directions[i]
        return lambda t: (ax * (1 + max(Fraction(0), t - j)), ay * (1 + max(Fraction(0), t - j)))

    omega = SignalFamily(
        ROLE_DISTURBANCE,
        tuple(f"w{i}{j}" for i in (1, 2) for j in (1, 2)),
        tuple(
            Signal(_piecewise_linear_cells(omega_fn(i, j), g.stamps))
            for i in (1, 2)
            for j in (1, 2)
        ),
    )
    z = SignalFamily(
        ROLE_TRAJECTORY,
        tuple(f"h{i}{j}" for i in (1, 2, 3, 4) for j in (0, 1, 2)),
        tuple(
            Signal(_piecewise_linear_cells(z_fn(i, j), g.stamps))
            for i in (1, 2, 3, 4)
            for j in (0, 1, 2)
        ),
    )
    inst = Instance(g, omega, z)
    alpha = mf_by_names(
        inst,
        {
            "w11": ("h10", "h11", "h12", "h21", "h32", "h41"),
            "w12": ("h20", "h21", "h22", "h11", "h32", "h42"),
            "w21": ("h30", "h31", "h32", "h12", "h21", "h41"),
            "w22": ("h40", "h41", "h42", "h12", "h22", "h31"),
        },
    )
    return inst, alpha


def example3_grid(n: int) -> TimeGrid:
    if n < 1:
        raise ValidationError("truncation level must be at least 1")
    stamps = [Fraction(0), Fraction(1)] + [1 + Fraction(1, i) for i in range(n, 0, -1)]
    return TimeGrid(tuple(stamps))


def example3_system(n: int) -> ControlSystem:
    """Pursuit system: the state moves by (u - v); a fair meeting needs the control to catch up."""
    g = example3_grid(n)
    cells = g.cells
    disturbances = SignalFamily(
        ROLE_DISTURBANCE,
        tuple(f"v{j}" for j in range(1, n + 1)),
        tuple(
            Signal(tuple("1" if c >= n + 2 - j else "0" for c in range(cells)))
            for j in range(1, n + 1)
        ),
    )
    levels = sorted({Fraction(0)} | {1 - Fraction(1, i) for i in range(1, n + 1)})
    return ControlSystem(g, tuple(levels), disturbances, "u-v")


def build_example3(n: int) -> tuple[Instance, Multifunction]:
    """Truncated catch-up game: disturbance v_j admits exactly the controls u_i with i >= j.

    Each disturbance waits on one more grid cell before jumping; each control
    jumps right after stamp 1 to its own terminal slope.  Deeper truncations
    shrink the meet of the prefix projections at v_1 towards a single
    control, but it empties only in the untruncated limit, which is outside
    this library's finite scope.
    """
    sys = example3_system(n)
    g = sys.grid
    cells = g.cells
    z = SignalFamily(
        ROLE_TRAJECTORY,
        tuple(f"u{i}" for i in range(1, n + 1)),
        tuple(
            Signal(("0",) + (str(1 - Fraction(1, i)),) * (cells - 1))
            for i in range(1, n + 1)
        ),
    )
    inst = Instance(g, sys.disturbances, z)
    values = tuple(
        frozenset(i - 1 for i in range(j, n + 1)) for j in range(1, n + 1)
    )
    return inst, Multifunction(inst, values)


EXAMPLE4_LEVELS = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


def build_example4(levels=EXAMPLE4_LEVELS) -> ControlSystem:
    """Two-disturbance system on three unit cells, the state moving by (u + v).

    One disturbance pushes up on the middle cell, the other pushes down from
    the middle cell on; both are silent on the first cell, which is exactly
    where a non-anticipative control must commit blindly.
    """
    lv = tuple(sorted(Fraction(x) for x in set(levels)))
    if not lv:
        raise ValidationError("the level set must not be empty")
    if any(x < -1 or x > 1 for x in lv):
        raise ValidationError("control levels must lie in [-1, 1]")
    g = grid(0, 1, 2, 3)
    disturbances = SignalFamily(
        ROLE_DISTURBANCE,
        ("v1", "v2"),
        (Signal(("0", "1", "0")), Signal(("0", "-1", "-1"))),
    )
    return ControlSystem(g, lv, disturbances, "u+v")


def _control_family(sys: ControlSystem) -> SignalFamily:
    cells = sys.grid.cells
    combos = list(itertools.product(sys.levels, repeat=cells))
    return SignalFamily(
        ROLE_TRAJECTORY,
        tuple("u(" + ",".join(str(x) for x in combo) + ")" for combo in combos),
        tuple(Signal(tuple(str(x) for x in combo)) for combo in combos),
    )


def _responses(sys: ControlSystem) -> tuple[Instance, list[list[Fraction]]]:
    """The instance over all control sequences, and costs[v][j] = -|terminal state| of u_j against v."""
    z = _control_family(sys)
    inst = Instance(sys.grid, sys.disturbances, z)
    return inst, [[-abs(integrate(sys, u, v)) for u in z.signals] for v in sys.disturbances.signals]


def _within(inst: Instance, costs: list[list[Fraction]], rho: Fraction) -> Multifunction:
    values = tuple(frozenset(j for j, c in enumerate(row) if c <= rho) for row in costs)
    return Multifunction(inst, values)


def alpha_rho(sys: ControlSystem, rho: Fraction) -> tuple[Instance, Multifunction]:
    """Responses achieving cost at most `rho`: keep controls with |terminal state| >= -rho."""
    inst, costs = _responses(sys)
    return inst, _within(inst, costs, rho)


def optimal_rho(sys: ControlSystem) -> RhoSearchResult:
    """Scan the achievable cost levels downwards for the last one that stays feasible.

    Candidates are the finitely many achievable values of -|terminal state|
    together with 0.  Every (control, disturbance) cost is integrated once;
    each candidate only filters that table.  Response sets only shrink as
    the candidate drops, so the first infeasible candidate ends the scan.
    """
    inst, costs = _responses(sys)
    candidates = sorted({c for row in costs for c in row} | {Fraction(0)}, reverse=True)
    best: tuple[Fraction, Multifunction] | None = None
    for k, rho in enumerate(candidates):
        w = greatest_na(_within(inst, costs, rho))
        if not is_total(w):
            break
        best = (rho, w)
    assert best is not None  # the zero candidate keeps every control
    return RhoSearchResult(best[0], tuple(candidates[: k + 1]), best[1])


# ---------------------------------------------------------------------------
# Random instances


def random_instance(
    seed: int,
    n_omega: int = 3,
    n_z: int = 4,
    n_cells: int = 3,
    alphabet: int = 2,
    density: float = 0.5,
) -> tuple[Instance, Multifunction]:
    """Reproducible instance: same seed, same instance, bit for bit.

    `alphabet` bounds the distinct tokens per cell; `density` is the chance
    of each trajectory appearing in each value set.
    """
    if min(n_omega, n_z, n_cells, alphabet) < 1:
        raise ValidationError("sizes must be positive")
    if not 0 <= density <= 1:
        raise ValidationError("density must lie in [0, 1]")
    space = alphabet**n_cells
    if space < max(n_omega, n_z):
        raise ValidationError(
            f"{alphabet} tokens over {n_cells} cells cannot hold {max(n_omega, n_z)} distinct signals"
        )
    rng = random.Random(seed)
    tokens = [chr(ord("a") + i) if i < 26 else f"t{i}" for i in range(alphabet)]

    def draw_family(count: int, role: str, prefix: str) -> SignalFamily:
        if space <= 4096:
            pool = list(itertools.product(tokens, repeat=n_cells))
            chosen = rng.sample(pool, count)
        else:
            seen: set[tuple[str, ...]] = set()
            chosen = []
            while len(chosen) < count:
                cand = tuple(rng.choice(tokens) for _ in range(n_cells))
                if cand not in seen:
                    seen.add(cand)
                    chosen.append(cand)
        return SignalFamily(
            role,
            tuple(f"{prefix}{i + 1}" for i in range(count)),
            tuple(Signal(c) for c in chosen),
        )

    omega = draw_family(n_omega, ROLE_DISTURBANCE, "w")
    z = draw_family(n_z, ROLE_TRAJECTORY, "h")
    inst = Instance(TimeGrid(tuple(Fraction(k) for k in range(n_cells + 1))), omega, z)
    values = tuple(
        frozenset(j for j in range(n_z) if rng.random() < density) for _ in range(n_omega)
    )
    return inst, Multifunction(inst, values)


# ---------------------------------------------------------------------------
# Name-based dispatch for the command line


def build_scenario(
    name: str, rho: Fraction | None = None
) -> tuple[Instance, Multifunction, dict]:
    """Resolve a scenario name: ex1, ex2, ex3:<n>, ex4[:levels], random:<seed>:<sizes>.

    For ex4 the emitted responses default to the optimal guaranteed-result
    level; `rho` overrides it.  Random sizes are n_omega,n_z,n_cells with
    optional alphabet and integer density percent.
    """
    head, _, rest = name.partition(":")
    if rho is not None and head != "ex4":
        raise ValidationError("only ex4 scenarios take a rho level")
    meta: dict = {"scenario": name}
    if head == "ex1":
        inst, mf = build_example1()
    elif head == "ex2":
        inst, mf = build_example2()
    elif head == "ex3":
        try:
            n = int(rest)
        except ValueError:
            raise ValidationError(f"ex3 needs a truncation level, got {rest!r}") from None
        inst, mf = build_example3(n)
    elif head == "ex4":
        levels = EXAMPLE4_LEVELS
        if rest:
            try:
                levels = tuple(Fraction(x) for x in rest.split(","))
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"bad level list {rest!r}") from None
        sys = build_example4(levels)
        if rho is None:
            rho = optimal_rho(sys).rho_star
        inst, mf = alpha_rho(sys, rho)
        meta["rho"] = str(rho)
    elif head == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValidationError("random scenarios look like random:<seed>:<sizes>")
        try:
            seed = int(parts[0])
            sizes = [int(x) for x in parts[1].split(",")]
        except ValueError:
            raise ValidationError(f"bad random scenario spec {rest!r}") from None
        if not 3 <= len(sizes) <= 5:
            raise ValidationError("random sizes are n_omega,n_z,n_cells[,alphabet[,density%]]")
        kwargs = dict(n_omega=sizes[0], n_z=sizes[1], n_cells=sizes[2])
        if len(sizes) >= 4:
            kwargs["alphabet"] = sizes[3]
        if len(sizes) == 5:
            kwargs["density"] = sizes[4] / 100
        inst, mf = random_instance(seed, **kwargs)
    else:
        raise ValidationError(f"unknown scenario {name!r}")
    return inst, mf, meta
