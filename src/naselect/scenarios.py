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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, NamedTuple

from .errors import ValidationError
from .multifunction import Instance, Multifunction, is_total, mf_by_names
from .nonanticipation import canonical_chain, compose_chain
from .signals import SignalFamily
from .timebase import TimeGrid, grid


class ControlSystem(NamedTuple("ControlSystem", [("grid", TimeGrid), ("levels", tuple[Fraction, ...]),
                    ("disturbances", SignalFamily), ("dynamics", str), ("x0", Fraction)])):
    """Scalar integrator dynamics over a grid: the state moves by (u ± v) per cell.

    `levels` lists the admissible constant control values per cell; the
    disturbance family is explicit.  `dynamics` is "u+v" or "u-v".
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, grid: TimeGrid, levels: tuple[Fraction, ...], disturbances: SignalFamily, dynamics: str,
                x0: Fraction = Fraction(0)) -> ControlSystem:
        if not levels:
            raise ValidationError("a control system needs at least one control level")
        if dynamics not in ("u+v", "u-v"):
            raise ValidationError(f"unknown dynamics {dynamics!r}")
        if disturbances.width != grid.cells:
            raise ValidationError("disturbance signals do not fit the grid")
        return tuple.__new__(cls, (grid, levels, disturbances, dynamics, x0))


class RhoSearchResult(NamedTuple):
    """Outcome of the guaranteed-result search.

    `rho_star` is the least candidate whose responses still admit a total
    non-anticipative multiselector; `witness` is that multiselector.
    `candidates` are the levels from 0 down to the first infeasible one, or
    all of them when none is; a bisection probes only O(log) of them.
    """

    rho_star: Fraction
    candidates: tuple[Fraction, ...]
    witness: Multifunction


def _cell_value(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cell token {token!r} carries no rational payload") from None


def integrate(sys: ControlSystem, u: tuple[str, ...], v: tuple[str, ...]) -> Fraction:
    """Exact terminal state from cell-wise quadrature of the chosen dynamics; `u` and `v` are cell tuples."""
    widths = sys.grid.widths()
    if len(u) != len(widths) or len(v) != len(widths):
        raise ValidationError("signals do not fit the system grid")
    sign = 1 if sys.dynamics == "u+v" else -1
    x = sys.x0
    for uc, vc, w in zip(u, v, widths):
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
    omega = SignalFamily(("w1", "w2", "w3"), (("p", "q", "r"), ("p", "s", "t"), ("p", "s", "u")))
    z = SignalFamily(("h1", "h2", "h3"), (("a", "b", "x"), ("a", "c", "y"), ("d", "e", "z")))
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
        tuple(f"w{i}{j}" for i in (1, 2) for j in (1, 2)),
        tuple(
            _piecewise_linear_cells(omega_fn(i, j), g.stamps)
            for i in (1, 2)
            for j in (1, 2)
        ),
    )
    z = SignalFamily(
        tuple(f"h{i}{j}" for i in (1, 2, 3, 4) for j in (0, 1, 2)),
        tuple(
            _piecewise_linear_cells(z_fn(i, j), g.stamps)
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
        tuple(f"v{j}" for j in range(1, n + 1)),
        tuple(
            tuple("1" if c >= n + 2 - j else "0" for c in range(cells))
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
        tuple(f"u{i}" for i in range(1, n + 1)),
        tuple(
            ("0",) + (str(1 - Fraction(1, i)),) * (cells - 1)
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
    disturbances = SignalFamily(("v1", "v2"), (("0", "1", "0"), ("0", "-1", "-1")))
    return ControlSystem(g, lv, disturbances, "u+v")


def _control_family(sys: ControlSystem) -> SignalFamily:
    names = [str(x) for x in sys.levels]
    combos = tuple(itertools.product(names, repeat=sys.grid.cells))
    return SignalFamily(tuple("u(" + ",".join(combo) + ")" for combo in combos), combos)


def _weights(family: SignalFamily, widths: tuple[Fraction, ...]) -> list[dict[str, Fraction]]:
    """Per cell, each distinct token's value times the cell width; each token parsed once."""
    columns = zip(zip(*family.signals), widths)
    return [{tok: _cell_value(tok) * w for tok in dict.fromkeys(col)} for col, w in columns]


def _areas(family: SignalFamily, weights: list[dict[str, Fraction]], d: int) -> list[int]:
    """Per signal, d times the sum over cells of value times width; `d` must clear every weight's denominator."""
    scaled = [{tok: x.numerator * (d // x.denominator) for tok, x in col.items()} for col in weights]
    return [sum(map(dict.__getitem__, scaled, s)) for s in family.signals]


def _responses(sys: ControlSystem) -> tuple[Instance, list[list[int]], list[list[int]], int]:
    """The instance over all controls, the cost table over one common denominator `d`, and each
    row's control indices in ascending cost order.

    `d` is the lcm of the denominators of `x0` and of every weighted cell value, so every
    cost is an int over it: costs[v][j] / d = -|x0 + area(u_j) ± area(v)|, the negated
    terminal state of u_j against v.  Ints over one positive denominator sort, tie and
    compare exactly like the rationals they stand for.
    """
    z = _control_family(sys)
    widths, sign = sys.grid.widths(), 1 if sys.dynamics == "u+v" else -1
    weights_u, weights_v = _weights(z, widths), _weights(sys.disturbances, widths)
    d = lcm(sys.x0.denominator, *(x.denominator for col in weights_u + weights_v for x in col.values()))
    x0 = sys.x0.numerator * (d // sys.x0.denominator)
    area_u, area_v = _areas(z, weights_u, d), _areas(sys.disturbances, weights_v, d)
    costs = [[-abs(base + a) for a in area_u] for base in [x0 + sign * b for b in area_v]]
    orders = [sorted(range(len(row)), key=row.__getitem__) for row in costs]
    return Instance(sys.grid, sys.disturbances, z), costs, orders, d


def _within(inst: Instance, costs, orders, d: int, rho: Fraction) -> Multifunction:
    """Each row's controls with cost at most the rational `rho`.

    A cost c stands for c / d with d > 0, and for an int c, c / d <= rho exactly
    when c <= floor(rho · d), so each row is cut at that one int.
    """
    cut = rho.numerator * d // rho.denominator
    cuts = [bisect_right(order, cut, key=row.__getitem__) for row, order in zip(costs, orders)]
    return Multifunction._trusted(inst, tuple(inst.z.prefix_index.pack(o[:k]) for o, k in zip(orders, cuts)))


def alpha_rho(sys: ControlSystem, rho: Fraction) -> tuple[Instance, Multifunction]:
    """Responses achieving cost at most `rho`: keep controls with |terminal state| >= -rho."""
    inst, costs, orders, d = _responses(sys)
    return inst, _within(inst, costs, orders, d, rho)


def optimal_rho(sys: ControlSystem) -> RhoSearchResult:
    """Bisect the achievable cost levels for the last one that stays feasible.

    Candidates are the achievable values of -|terminal state| together with 0.
    Response sets only shrink as the candidate drops, and the greatest
    non-anticipative multiselector with them, so the feasible candidates are
    exactly those above the first infeasible one, which a bisection finds.
    """
    return _search(*_responses(sys))


def _search(inst: Instance, costs, orders, d: int) -> RhoSearchResult:
    """`optimal_rho` over a filled table: `bisect_left` finds the first infeasible of the descending levels.

    A probe cuts each row at its level and composes the rows along the one canonical chain; probes are
    cached, so the optimum's witness is swept once.  The zero level keeps every control, so it is feasible.
    """
    levels = sorted({c for row in costs for c in row} | {0}, reverse=True)
    chain = canonical_chain(inst)
    greatest = cache(lambda c: compose_chain(_within(inst, costs, orders, d, Fraction(c, d)), chain))
    k = bisect_left(levels, True, key=lambda c: not is_total(greatest(c)))
    best = levels[k - 1]
    return RhoSearchResult(Fraction(best, d), tuple(Fraction(c, d) for c in levels[: k + 1]), greatest(best))


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
    # The space is only compared with the family sizes and with 4096; capping the
    # exponent at their bit length keeps both comparisons exact without a huge power.
    space = alphabet ** min(n_cells, max(n_omega, n_z, 4096).bit_length())
    if space < max(n_omega, n_z):
        raise ValidationError(
            f"{alphabet} tokens over {n_cells} cells cannot hold {max(n_omega, n_z)} distinct signals"
        )
    rng = random.Random(seed)
    tokens = [chr(ord("a") + i) if i < 26 else f"t{i}" for i in range(alphabet)]

    def draw_family(count: int, prefix: str) -> SignalFamily:
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
        return SignalFamily(tuple(f"{prefix}{i + 1}" for i in range(count)), tuple(chosen))

    omega = draw_family(n_omega, "w")
    z = draw_family(n_z, "h")
    inst = Instance(TimeGrid(tuple(Fraction(k) for k in range(n_cells + 1))), omega, z)
    values = tuple(
        frozenset(j for j in range(n_z) if rng.random() < density) for _ in range(n_omega)
    )
    return inst, Multifunction(inst, values)


# ---------------------------------------------------------------------------
# Name-based dispatch for the command line


MAX_SCENARIO_CELLS = 1_000_000
MAX_LEVEL_DIGITS = 4300  # the default int-to-str limit, fixed so that every interpreter takes the same levels
_LEVEL_BOUND = 10**MAX_LEVEL_DIGITS


def parse_level(text: str, what: str) -> Fraction:
    """`text` as a rational that prints: numerator and denominator of at most MAX_LEVEL_DIGITS digits each.

    `what` names the input in errors.  An exponent that no such level has is refused before `Fraction`
    raises ten to it.
    """
    try:
        head, e, exp = text.strip().lower().rpartition("e")
        x = None if e and abs(int(exp)) > MAX_LEVEL_DIGITS + len(head) else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad {what}") from None
    if x is None or max(abs(x.numerator), x.denominator) >= _LEVEL_BOUND:
        raise ValidationError(f"bad {what}: a level's numerator and denominator have at most {MAX_LEVEL_DIGITS} digits")
    return x


def build_scenario(
    name: str, rho: Fraction | None = None
) -> tuple[Instance, Multifunction, dict]:
    """Resolve a scenario name: ex1, ex2, ex3:<n>, ex4[:levels], random:<seed>:<sizes>.

    For ex4 the emitted responses default to the optimal guaranteed-result
    level; `rho` overrides it.  Random sizes are n_omega,n_z,n_cells with
    optional alphabet and integer density percent.  A spec whose signal
    cells, value-set entries and random tokens would exceed
    MAX_SCENARIO_CELLS is rejected before anything is built.
    """
    head, sep, rest = name.partition(":")
    if rho is not None and head != "ex4":
        raise ValidationError("only ex4 scenarios take a rho level")
    if sep and head in ("ex1", "ex2"):
        raise ValidationError(f"{head} takes no arguments, got {rest!r}")
    meta: dict = {"scenario": name}
    tokens = 0
    if head == "ex1":
        shape, build = (3, 3, 3), build_example1
    elif head == "ex2":
        shape, build = (4, 12, 3), build_example2
    elif head == "ex3":
        try:
            n = int(rest)
        except ValueError:
            raise ValidationError(f"ex3 needs a truncation level, got {rest!r}") from None
        shape, build = (n, n, n + 1), lambda: build_example3(n)
    elif head == "ex4":
        levels = tuple(parse_level(x, f"level list {rest!r}") for x in rest.split(",")) if sep else EXAMPLE4_LEVELS

        def build() -> tuple[Instance, Multifunction]:
            table = _responses(build_example4(levels))
            level = _search(*table).rho_star if rho is None else rho
            meta["rho"] = str(level)
            return table[0], _within(*table, level)

        shape = (2, len(set(levels)) ** 3, 3)
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
            kwargs["alphabet"] = tokens = sizes[3]
        if len(sizes) == 5:
            kwargs["density"] = sizes[4] / 100
        shape, build = (sizes[0], sizes[1], sizes[2]), lambda: random_instance(seed, **kwargs)
    else:
        raise ValidationError(f"unknown scenario {name!r}")
    n_omega, n_z, n_cells = shape
    cells = (n_omega + n_z) * n_cells + n_omega * n_z + tokens
    if cells > MAX_SCENARIO_CELLS:
        raise ValidationError(
            f"{head} scenario would allocate {cells} cells, value-set entries and tokens;"
            f" at most {MAX_SCENARIO_CELLS} are allowed"
        )
    inst, mf = build()
    return inst, mf, meta
