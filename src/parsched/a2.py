"""Configuration-guessing lane family with core and reserve machines.

Each lane commits to a *target configuration*: an assignment of one job
class (or none) to each core machine, derived from a sparse guess vector
u.  Large jobs fill their class's core slots and overflow to the reserve
machines by best fit; small jobs pile onto core machines under an exact
load ceiling.  The family size depends only on the accuracy parameter,
never on the machine count, which is the whole point of the
sparsification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, groupby
from typing import Optional, Sequence

from ._scaling import GuessLadder, ScaledLane, common_scale, scale_values, stream_counts
from .rational import accuracy, ceil_log

__all__ = [
    "A2Params",
    "TargetConfiguration",
    "A2Rule",
    "A2State",
    "AlgoChoice",
    "a2_params",
    "a2_rule_thresholds",
    "a2_block_lengths",
    "a2_config_from_u",
    "a2_valid_u",
    "a2_family_size",
    "a2_class_counts",
    "a3_dispatch",
    "u_to_lane_index",
    "lane_index_to_u",
]

SMALL = 0


@dataclass(frozen=True)
class A2Params(GuessLadder):
    """Exact parameters of the configuration family for one (eps, m, T).

    Classes 1..levels cover medium jobs in (a_i, b_i] * T; classes
    levels+1..2*levels-1 cover their doubled ranges (2a_i, 2b_i] * T.
    Core machines are 1..mu, reserve machines mu+1..m.  The integer
    fields are the thresholds at T = 1 over ``unit`` (see GuessLadder):
    the size bounds, the load cap 4/3 + eps, the fill line 1 + eps' and
    the targeted load bounds of classes 0..2l-1.  A run builds them once
    and rebinds them to each guess with ``at``.
    """

    eps: Fraction
    eps_prime: Fraction
    lam: int
    levels: int  # l; class count is 2*levels - 1
    mu: int
    kappa: int
    m0: int
    m: int
    T: Fraction
    unit: int
    ladder: tuple[int, ...]  # small_max, then the class bounds: a size's class bisects them
    cap: int
    fill: int
    ell_minus: tuple[int, ...]
    ell_plus: tuple[int, ...]

    def at(self, T: Fraction) -> "A2Params":
        """The same parameters under the guess T > 0."""
        if T.numerator <= 0:
            raise ValueError("assumed optimum must be positive")
        return replace(self, T=T)

    @property
    def n_classes(self) -> int:
        return 2 * self.levels - 1

    @property
    def a(self) -> tuple[Fraction, ...]:
        """a[i-1] = a_i * T, half the targeted minimum load of class i."""
        return tuple(self._at_T(x) / 2 for x in self.ell_minus[1 : self.levels + 1])

    @property
    def b(self) -> tuple[Fraction, ...]:
        return self.class_bounds[: self.levels]

    @property
    def small_max(self) -> Fraction:
        return self.bounds[0]

    @property
    def load_cap(self) -> Fraction:
        """Per-machine ceiling (4/3 + eps) * T enforced by every rule."""
        return self._at_T(self.cap)

    @property
    def class_bounds(self) -> tuple[Fraction, ...]:
        """Upper endpoints of classes 1..2*levels-1, strictly increasing."""
        return self.bounds[1:]

    def slots_of(self, cls: int) -> int:
        """Core slot count for a class: two medium jobs or one doubled job."""
        if not 1 <= cls <= self.n_classes:
            raise ValueError("class out of range")
        return 2 if cls <= self.levels else 1

    def canonical_u(self, counts: Sequence[int]) -> tuple[int, ...]:
        """The canonical guess floor(n_i / (slots_i * m0)) of a census, not
        capped at kappa; m0 > 0 at or above the machine threshold."""
        return tuple(counts[i] // (self.slots_of(i + 1) * self.m0) for i in range(self.n_classes))

    def threshold(self) -> Fraction:
        """Machine count below which the census family takes over."""
        return 2 * self.levels / self.eps_prime**2


def a2_params(eps: Fraction, m: int, T: Fraction = Fraction(1)) -> A2Params:
    eps = accuracy(eps)
    if m < 1:
        raise ValueError("machine count must be positive")
    eps_prime = eps / 8
    lam = ceil_log(Fraction(3, 8) + 1 / (48 * eps_prime), Fraction(2))
    levels = lam + 2
    third = Fraction(1, 3)
    slope = Fraction(1, 12) + Fraction(3, 2) * eps_prime
    a = []
    b = []
    for i in range(1, levels + 1):
        step_a = slope * Fraction(2) ** (i - lam - 1)
        step_b = slope * Fraction(2) ** (i - lam)
        a.append(max(third - 2 * eps_prime + step_a, third + 2 * eps_prime))
        b.append(third - 2 * eps_prime + step_b)
    # Class i and its doubled class l+i target loads in [2a_i, 2b_i]; class 0 none.
    ell_minus, ell_plus = ([0, *(2 * x for x in xs), *(2 * x for x in xs[:-1])] for xs in (a, b))
    # The size bounds (small_max, then the class bounds), the load cap and the fill line.
    fixed = [a[0], *b, *(2 * x for x in b[:-1]), Fraction(4, 3) + eps, 1 + eps_prime]
    unit = common_scale([*fixed, *ell_minus, *ell_plus])
    *ladder, cap, fill = scale_values(fixed, unit)
    mu = -((-(1 + eps_prime) * m) // (1 + 2 * eps_prime))  # exact ceiling
    kappa_val = 2 * (2 + 1 / eps_prime) * (2 * levels - 1)
    kappa = -((-kappa_val) // 1)
    m0 = (m - mu) // (2 * levels - 1)
    return A2Params(eps, eps_prime, lam, levels, int(mu), int(kappa), int(m0), m, Fraction(1),
                    unit, tuple(ladder), cap, fill, tuple(scale_values(ell_minus, unit)),
                    tuple(scale_values(ell_plus, unit))).at(Fraction(T))


def a2_rule_thresholds(params: A2Params, scale: int):
    """(bounds, cap, fill, ell_minus, ell_plus) in units of 1/scale, a multiple
    of ``params.scale()``; a size's class is bisect_left(bounds, size), n_classes + 1 none."""
    bounds, (cap, fill), *ells = (params.rebind(scale, xs) for xs in (
        params.ladder, (params.cap, params.fill), params.ell_minus, params.ell_plus))
    return bounds, cap, fill, *ells


def a2_class_counts(params: A2Params, jobs) -> tuple[int, ...]:
    """Per-class counts of the large jobs in a stream (class 1..2l-1).

    Raises if a job exceeds the top class bound."""
    return tuple(stream_counts(jobs, params.census, params.bounds[-1]))


@dataclass(frozen=True)
class TargetConfiguration:
    """Vector c over the core machines; entry 0 means no large jobs."""

    params: A2Params
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.c) != self.params.mu:
            raise ValueError("configuration length must equal the core size")
        if self.c and (min(self.c) < 0 or max(self.c) > self.params.n_classes):
            raise ValueError("configuration entries must lie in 0..2l-1")


def a2_block_lengths(params: A2Params, u: Sequence[int]) -> tuple[int, ...]:
    """Core machines each class claims under guess u, in class order.

    Class i claims min(u_i * m0, mu - pos) machines after the pos claimed
    before it.  A lane's behaviour depends on these lengths alone, so
    guesses that differ only once the core is used up share one layout.
    """
    lengths = []
    pos = 0
    for ui in u:
        n = min(ui * params.m0, params.mu - pos)
        lengths.append(n)
        pos += n
    return tuple(lengths)


def a2_config_from_u(params: A2Params, u: Sequence[int]) -> TargetConfiguration:
    """Expand a sparse guess u into a concrete core configuration.

    Class i claims a block of consecutive core machines (see
    a2_block_lengths); the core left over gets zero entries.
    """
    u = tuple(int(x) for x in u)
    if len(u) != params.n_classes:
        raise ValueError("u length must be 2l-1")
    if any(not 0 <= x <= params.kappa for x in u):
        raise ValueError("u entries must lie in 0..kappa")
    c: list[int] = []
    for i, n in enumerate(a2_block_lengths(params, u), start=1):
        c.extend([i] * n)
    c.extend([0] * (params.mu - len(c)))
    return TargetConfiguration(params, tuple(c))


def a2_valid_u(params: A2Params, counts: Sequence[int]) -> tuple[int, ...]:
    """The canonical guess floor(n_i / (2*m0)) / floor(n_i / m0), checked.

    Requires the machine count to be at or above the family threshold
    and the census to be packable at all; under those premises the
    resulting configuration is always valid.
    """
    counts = tuple(int(x) for x in counts)
    if Fraction(params.m) < params.threshold():
        raise ValueError("machine count below the family threshold; dispatch elsewhere")
    levels = params.levels
    packing = (sum(counts[:levels]) + 1) // 2 + sum(counts[levels:])
    if packing > params.m:
        raise ValueError("census cannot belong to a sequence with optimum <= T")
    u = params.canonical_u(counts)
    if any(x > params.kappa for x in u):
        raise ValueError("guess entry above kappa; census inconsistent with T")
    return u


def a2_family_size(params: A2Params) -> int:
    return (params.kappa + 1) ** params.n_classes


def u_to_lane_index(params: A2Params, u: Sequence[int]) -> int:
    """Position of u in the lexicographic enumeration (u_1 most significant)."""
    idx = 0
    for x in u:
        if not 0 <= x <= params.kappa:
            raise ValueError("u entries must lie in 0..kappa")
        idx = idx * (params.kappa + 1) + int(x)
    return idx


def lane_index_to_u(params: A2Params, idx: int) -> tuple[int, ...]:
    base = params.kappa + 1
    digits = []
    for _ in range(params.n_classes):
        digits.append(idx % base)
        idx //= base
    if idx:
        raise ValueError("lane index out of range")
    return tuple(reversed(digits))


class A2Rule:
    """The configuration-lane rule, over one exact ordered number type.

    ``c`` gives the class of each core machine (0 = none); machines are
    0-based and jobs arrive as (class, size) pairs, class 0 for small
    jobs, every size positive.  ``params`` supplies the machine counts
    and slots per class.  Sizes, the load ceiling ``cap``, the fill line
    ``fill`` and the per-class targeted load bounds (index 0 for
    class-free machines) must share one exact number type: common-scale
    integers in A2State and the sweep (see a2_rule_thresholds), any
    exact type in tests.  Loads start at
    ``cap - cap``, that type's zero.  ``fill_violations`` counts the
    jobs after which more than one core machine holds small jobs while
    sitting strictly below the fill line.

    A small job costs O(log mu + classes): a max-tree over the room
    ``cap - ell_plus - ell_s`` of each core machine holding small jobs
    finds the leftmost one with room, and per-class stacks of the other
    core machines find the one to open.  Two shortcuts make the usual
    small job O(1):

    - a hint (j, p) records that every opened machine left of j had room
      < p when j was chosen for a job of size p.  Rooms of opened machines
      only shrink, so while no machine left of j opens, a job of size
      p' >= p that fits on j goes there without a descent;
    - a small put leaves the ancestors of its leaf stale and repairs them
      only when another leaf changes or the tree is searched, so a run of
      puts on one machine climbs the tree once.

    A large job takes its class's next core slot in amortised O(1), or
    scans the m - mu reserve machines for best fit.
    """

    def __init__(
        self,
        params: A2Params,
        c: Sequence[int],
        cap,
        fill,
        ell_minus_cls: Sequence,
        ell_plus_cls: Sequence,
    ):
        zero = cap - cap
        mu = params.mu
        self.c = c
        self.m = params.m
        self.mu = mu
        self.cap = cap
        self.loads = [zero] * params.m
        slots = [0] + [params.slots_of(cls) for cls in range(1, params.n_classes + 1)]
        # Per-class stacks, pop() yields the lowest index first: core slots
        # of each large class, and core machines not yet holding small jobs.
        # They and the slot counts are built from the runs of equal classes
        # in c: a block configuration has O(classes) runs.
        runs = [(cls, len(list(run))) for cls, run in groupby(c)]
        self.slots_left = list(chain.from_iterable([slots[cls]] * n for cls, n in runs))
        self._unopened: list[list[int]] = [[] for _ in range(params.n_classes + 1)]
        end = mu
        for cls, n in reversed(runs):
            self._unopened[cls].extend(range(end - 1, end - n - 1, -1))
            end -= n
        self._admissible = [stack.copy() for stack in self._unopened[1:]]
        self._opened = bytearray(mu)
        self._ell_minus = ell_minus_cls
        self._full_room = [cap - hi for hi in ell_plus_cls]
        # ell_minus + ell_s < fill  <=>  room > ell_minus + cap - ell_plus - fill
        self._below_fill = [lo + cap - hi - fill for lo, hi in zip(ell_minus_cls, ell_plus_cls)]
        size = 1
        while size < mu:
            size *= 2
        self._size = size
        # Max-tree over rooms: leaf size + j holds machine j's room once it
        # holds small jobs and zero before, so no positive size selects it.
        self._room = [zero] * (2 * size)
        self._stale = -1  # machine whose ancestors in _room await repair, -1 for none
        self._hint: Optional[tuple[int, object]] = None  # (machine, size) of the last choice
        self.fill_violations = 0
        self._open_below = 0  # core machines holding small jobs below the fill line

    def rescale(self, k: int) -> None:
        """Multiply every size-valued number by k > 0; no choice changes."""
        self.cap *= k
        self.loads = [x * k for x in self.loads]
        self._ell_minus = [x * k for x in self._ell_minus]
        self._full_room = [x * k for x in self._full_room]
        self._below_fill = [x * k for x in self._below_fill]
        self._room = [x * k for x in self._room]
        self._hint = None

    def _repair(self, j: int) -> None:
        """Reset the ancestors of machine j's leaf to the max of their children."""
        room = self._room
        node = (self._size + j) // 2
        while node:
            a, b = room[2 * node], room[2 * node + 1]
            top = a if a >= b else b
            if room[node] == top:
                break
            room[node] = top
            node //= 2

    def choose(self, cls: int, p) -> int:
        """Machine for a job of class cls and size p; nothing is committed.

        Small jobs join the first core machine already holding small jobs
        that stays under the cap, else open the fitting machine with the
        lowest targeted minimum (lowest index on ties), else machine 0.
        Large jobs take their class's next open core slot, else the
        fullest reserve machine they fit on.
        """
        cap = self.cap
        if cls == SMALL:
            room, size = self._room, self._size
            hint = self._hint
            if hint is not None and p >= hint[1] and room[size + hint[0]] >= p:
                return hint[0]
            if self._stale >= 0:
                self._repair(self._stale)
                self._stale = -1
            if room[1] >= p:
                node = 1
                while node < size:
                    node *= 2
                    if room[node] < p:
                        node += 1
                self._hint = (node - size, p)
                return node - size
            opened, ell_minus = self._opened, self._ell_minus
            best = -1
            for k, stack in enumerate(self._unopened):
                while stack and opened[stack[-1]]:
                    stack.pop()
                if stack and p <= self._full_room[k]:
                    j = stack[-1]
                    if best < 0 or (ell_minus[k], j) < (ell_minus[self.c[best]], best):
                        best = j
            if best < 0:
                return 0
            self._hint = (best, p)  # no opened machine has room >= p
            return best
        slots = self._admissible[cls - 1]
        while slots and self.slots_left[slots[-1]] == 0:
            slots.pop()
        if slots:
            return slots[-1]
        loads = self.loads
        if self.mu == self.m:
            # No reserve machines exist (tiny m); out of the guarantee
            # regime, complete with the least loaded core machine.
            return loads.index(min(loads))
        best = -1
        for j in range(self.mu, self.m):
            if loads[j] + p <= cap and (best < 0 or loads[j] > loads[best]):
                best = j
        return best if best >= 0 else self.mu

    def put(self, cls: int, p, j: int) -> None:
        """Commit a job of class cls and size p to machine j."""
        if cls == SMALL:
            if j >= self.mu:
                raise ValueError("small jobs belong on core machines")
            k = self.c[j]
            below = self._below_fill[k]
            room = self._room
            node = self._size + j
            stale = self._stale
            if stale != j and stale >= 0:
                self._repair(stale)
            if self._opened[j]:
                left = room[node]
                was_open = left > below
            else:
                self._opened[j] = 1
                left = self._full_room[k]
                was_open = False
                hint = self._hint
                if hint is not None and j < hint[0]:
                    self._hint = None  # j gains room left of the hinted machine
            left -= p
            self._open_below += (left > below) - was_open
            room[node] = left
            self._stale = j
        elif j < self.mu and self.c[j] == cls and self.slots_left[j] > 0:
            self.slots_left[j] -= 1
        self.loads[j] += p
        if self._open_below > 1:
            self.fill_violations += 1


class A2State(ScaledLane):
    """One configuration lane stepping on Jobs: an A2Rule over integers in
    units of a lane-local common denominator (see ScaledLane).

    Machines are 1-based here as everywhere in the public API.  The lane
    counts fill-line violations in ``fill_violations`` and never raises on
    one; callers that check the fill line assert that count is zero.
    """

    def __init__(self, config: TargetConfiguration):
        params = config.params
        self._start(params)
        self.rule = A2Rule(params, config.c, *a2_rule_thresholds(params, self._scale)[1:])
        self._choose, self._put = self.rule.choose, self.rule.put
        self.m = params.m
        self.params = params
        self.config = config

    def _rescale(self, k: int) -> None:
        self.rule.rescale(k)

    @property
    def loads(self) -> list[Fraction]:
        return [Fraction(x, self._scale) for x in self.rule.loads]

    @property
    def fill_violations(self) -> int:
        return self.rule.fill_violations


@dataclass(frozen=True)
class AlgoChoice:
    """Outcome of the machine-count dispatch between the two families."""

    kind: str  # "a1" or "a2"
    eps: Fraction


def a3_dispatch(eps: Fraction, m: int) -> AlgoChoice:
    """Configuration family when m clears the threshold, else census at 1/3."""
    eps = Fraction(eps)
    if Fraction(m) < a2_params(eps, m).threshold():
        return AlgoChoice("a1", Fraction(1, 3))
    return AlgoChoice("a2", eps)
