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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Job, Schedule, default_lane_cap
from .rational import ceil_log

__all__ = [
    "A2Params",
    "TargetConfiguration",
    "A2Rule",
    "A2State",
    "A2Family",
    "AlgoChoice",
    "a2_params",
    "a2_classify",
    "a2_block_lengths",
    "a2_config_from_u",
    "a2_is_valid",
    "a2_valid_u",
    "a2_family_size",
    "a2_family",
    "a2_class_counts",
    "a3_dispatch",
    "u_to_lane_index",
    "lane_index_to_u",
]

SMALL = 0


@dataclass(frozen=True)
class A2Params:
    """Exact parameters of the configuration family for one (eps, m, T).

    Classes 1..levels cover medium jobs in (a_i, b_i] * T; classes
    levels+1..2*levels-1 cover their doubled ranges (2a_i, 2b_i] * T.
    Core machines are 1..mu, reserve machines mu+1..m.  All thresholds
    carry the factor T so that job sizes stay untouched in reports.
    """

    eps: Fraction
    eps_prime: Fraction
    lam: int
    levels: int  # l; class count is 2*levels - 1
    a: tuple[Fraction, ...]  # a[i-1] = a_i * T
    b: tuple[Fraction, ...]
    mu: int
    kappa: int
    m0: int
    m: int
    T: Fraction

    @property
    def n_classes(self) -> int:
        return 2 * self.levels - 1

    @property
    def small_max(self) -> Fraction:
        return self.a[0]

    @property
    def load_cap(self) -> Fraction:
        """Per-machine ceiling (4/3 + eps) * T enforced by every rule."""
        return (Fraction(4, 3) + self.eps) * self.T

    @property
    def fill_line(self) -> Fraction:
        """(1 + eps') * T, the level small loads are meant to reach."""
        return (1 + self.eps_prime) * self.T

    @property
    def class_bounds(self) -> tuple[Fraction, ...]:
        """Upper endpoints of classes 1..2*levels-1, strictly increasing."""
        doubled = tuple(2 * self.b[i] for i in range(self.levels - 1))
        return self.b + doubled

    @property
    def top_bound(self) -> Fraction:
        return 2 * self.b[self.levels - 2] if self.levels >= 2 else self.b[-1]

    def slots_of(self, cls: int) -> int:
        """Core slot count for a class: two medium jobs or one doubled job."""
        if not 1 <= cls <= self.n_classes:
            raise ValueError("class out of range")
        return 2 if cls <= self.levels else 1

    def ell_bounds_of(self, cls: int) -> tuple[Fraction, Fraction]:
        """(targeted minimum, targeted maximum) load of a class-cls machine."""
        if cls == 0:
            return Fraction(0), Fraction(0)
        base = cls if cls <= self.levels else cls - self.levels
        return 2 * self.a[base - 1], 2 * self.b[base - 1]

    def threshold(self) -> Fraction:
        """Machine count below which the census family takes over."""
        return 2 * self.levels / self.eps_prime**2


def a2_params(eps: Fraction, m: int, T: Fraction) -> A2Params:
    eps = Fraction(eps)
    T = Fraction(T)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if T <= 0:
        raise ValueError("assumed optimum must be positive")
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
        a.append(max(third - 2 * eps_prime + step_a, third + 2 * eps_prime) * T)
        b.append((third - 2 * eps_prime + step_b) * T)
    mu = -((-(1 + eps_prime) * m) // (1 + 2 * eps_prime))  # exact ceiling
    kappa_val = 2 * (2 + 1 / eps_prime) * (2 * levels - 1)
    kappa = -((-kappa_val) // 1)
    m0 = (m - mu) // (2 * levels - 1)
    return A2Params(eps, eps_prime, lam, levels, tuple(a), tuple(b),
                    int(mu), int(kappa), int(m0), m, T)


def a2_classify(params: A2Params, p: Fraction) -> Optional[int]:
    """0 = small, 1..2*levels-1 = class index, None = above the top bound."""
    p = Fraction(p)
    if p <= 0:
        raise ValueError("processing time must be positive")
    if p <= params.small_max:
        return SMALL
    for i, bound in enumerate(params.class_bounds, start=1):
        if p <= bound:
            return i
    return None


def a2_class_counts(params: A2Params, jobs, clamp: bool = False) -> tuple[int, ...]:
    """Per-class counts of the large jobs in a stream (class 1..2l-1)."""
    counts = [0] * params.n_classes
    for job in jobs:
        cls = a2_classify(params, job.p)
        if cls is None:
            if clamp:
                continue
            raise ValueError(f"job of size {job.p} exceeds the top class bound")
        if cls != SMALL:
            counts[cls - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class TargetConfiguration:
    """Vector c over the core machines; entry 0 means no large jobs."""

    params: A2Params
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.c) != self.params.mu:
            raise ValueError("configuration length must equal the core size")
        if any(not 0 <= x <= self.params.n_classes for x in self.c):
            raise ValueError("configuration entries must lie in 0..2l-1")

    def machine_counts(self) -> tuple[int, ...]:
        """m_i = number of class-i core machines, i = 1..2l-1."""
        counts = [0] * self.params.n_classes
        for x in self.c:
            if x > 0:
                counts[x - 1] += 1
        return tuple(counts)

    def mu1(self) -> int:
        return sum(self.machine_counts()[: self.params.levels])

    def mu2(self) -> int:
        return sum(self.machine_counts()[self.params.levels :])


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


def a2_is_valid(params: A2Params, config: TargetConfiguration, counts: Sequence[int]) -> bool:
    """True iff the sequence census supports the configuration.

    Core demand must be covered class by class (two jobs per medium
    machine, one per doubled machine) and the surplus large jobs must
    fit on the reserve machines, pairing mediums two per machine.
    """
    counts = tuple(int(x) for x in counts)
    if len(counts) != params.n_classes:
        raise ValueError("counts length must be 2l-1")
    m_i = config.machine_counts()
    levels = params.levels
    for i in range(levels):
        if 2 * m_i[i] > counts[i]:
            return False
    for i in range(levels, params.n_classes):
        if m_i[i] > counts[i]:
            return False
    mu1 = config.mu1()
    mu2 = config.mu2()
    surplus_medium = sum(counts[:levels]) - 2 * mu1
    surplus_big = sum(counts[levels:]) - mu2
    need = (surplus_medium + 1) // 2 + surplus_big
    return need <= params.m - params.mu


def a2_valid_u(params: A2Params, counts: Sequence[int]) -> tuple[int, ...]:
    """The canonical guess floor(n_i / (2*m0)) / floor(n_i / m0).

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
    u = []
    for i in range(params.n_classes):
        if i < levels:
            u.append(counts[i] // (2 * params.m0))
        else:
            u.append(counts[i] // params.m0)
    if any(x > params.kappa for x in u):
        raise ValueError("guess entry above kappa; census inconsistent with T")
    return tuple(u)


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
    jobs.  ``params`` supplies the machine counts and slots per class.
    Sizes, the load ceiling ``cap``, the fill line ``fill`` and the
    per-class targeted load bounds (index 0 for class-free machines) must
    share one number type: Fractions in A2State, common-scale integers in
    the sweep.  Loads start at ``cap - cap``, that type's zero.
    check_fill_line=True counts the jobs after which more than one core
    machine holds small jobs while sitting strictly below the fill line.
    """

    def __init__(
        self,
        params: A2Params,
        c: Sequence[int],
        cap,
        fill,
        ell_minus_cls: Sequence,
        ell_plus_cls: Sequence,
        check_fill_line: bool = True,
    ):
        zero = cap - cap
        self.c = c
        self.m = params.m
        self.mu = params.mu
        self.cap = cap
        self.fill = fill
        self.loads = [zero] * params.m
        self.ell_s = [zero] * params.mu
        self.slots_left = [params.slots_of(cls) if cls else 0 for cls in c]
        self.ell_minus = [ell_minus_cls[cls] for cls in c]
        self.ell_plus = [ell_plus_cls[cls] for cls in c]
        self._admissible: list[list[int]] = [[] for _ in range(params.n_classes)]
        for j in range(params.mu - 1, -1, -1):  # pop() yields the lowest index first
            if c[j]:
                self._admissible[c[j] - 1].append(j)
        self.check_fill_line = check_fill_line
        self.fill_violations = 0
        self._open_below = 0  # core machines with ell_s > 0 below the fill line

    def choose(self, cls: int, p) -> int:
        """Machine for a job of class cls and size p; nothing is committed.

        Small jobs join the first core machine already holding small jobs
        that stays under the cap, else open the fitting machine with the
        lowest targeted minimum.  Large jobs take their class's next open
        core slot, else the fullest reserve machine they fit on.
        """
        cap = self.cap
        if cls == SMALL:
            ell_s, ell_plus, ell_minus = self.ell_s, self.ell_plus, self.ell_minus
            best = -1
            for j in range(self.mu):
                if ell_s[j] > 0:
                    if ell_plus[j] + ell_s[j] + p <= cap:
                        return j
                elif ell_plus[j] + p <= cap and (best < 0 or ell_minus[j] < ell_minus[best]):
                    best = j
            return max(best, 0)
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
            level = self.ell_minus[j] + self.ell_s[j]
            was_open = self.ell_s[j] > 0 and level < self.fill
            self.ell_s[j] += p
            self._open_below += (level + p < self.fill) - was_open
        elif j < self.mu and self.c[j] == cls and self.slots_left[j] > 0:
            self.slots_left[j] -= 1
        self.loads[j] += p
        if self.check_fill_line and self._open_below > 1:
            self.fill_violations += 1


class A2State(A2Rule):
    """One configuration lane over Fractions, stepping on Jobs.

    Machines are 1-based here as everywhere in the public API.
    strict=True raises on the first fill-line violation.
    """

    def __init__(
        self,
        config: TargetConfiguration,
        label: int = 0,
        check_fill_line: bool = True,
        strict: bool = False,
    ):
        params = config.params
        bounds = [params.ell_bounds_of(cls) for cls in range(params.n_classes + 1)]
        super().__init__(
            params, config.c, params.load_cap, params.fill_line,
            [lo for lo, _ in bounds], [hi for _, hi in bounds], check_fill_line,
        )
        self.params = params
        self.config = config
        self.label = label
        self.schedule = Schedule(params.m, label)
        self.strict = strict

    def propose(self, job: Job) -> Optional[int]:
        cls = a2_classify(self.params, job.p)
        if cls is None:
            return None
        return self.choose(cls, job.p) + 1

    def record(self, job: Job, machine: int) -> None:
        cls = a2_classify(self.params, job.p)
        if cls is None:
            raise ValueError("cannot record a job that has no class")
        violations = self.fill_violations
        self.put(cls, job.p, machine - 1)
        self.schedule.assign(machine, job)
        if self.strict and self.fill_violations > violations:
            raise AssertionError(
                "more than one core machine holds small jobs below the fill line"
            )

    def step(self, job: Job) -> Optional[int]:
        machine = self.propose(job)
        if machine is not None:
            self.record(job, machine)
        return machine


class A2Family:
    """Enumerated guess vectors for one parameter choice; lanes on demand."""

    def __init__(self, params: A2Params, vectors: list[tuple[int, ...]]):
        self.params = params
        self.vectors = vectors

    @property
    def size(self) -> int:
        return len(self.vectors)

    def lane(self, k: int, **kwargs) -> A2State:
        config = a2_config_from_u(self.params, self.vectors[k])
        return A2State(config, label=k, **kwargs)

    def lanes(self, **kwargs) -> list[A2State]:
        return [self.lane(k, **kwargs) for k in range(self.size)]


def a2_family(
    eps: Fraction,
    m: int,
    T: Fraction,
    u: Optional[Sequence[int]] = None,
    lane_cap: Optional[int] = None,
) -> A2Family:
    """Full family (all u vectors, cap-guarded) or a single targeted lane."""
    params = a2_params(eps, m, T)
    if u is not None:
        return A2Family(params, [tuple(int(x) for x in u)])
    lane_cap = default_lane_cap(lane_cap)
    total = a2_family_size(params)
    if total > lane_cap:
        raise RuntimeError(
            f"full family has {total} lanes, above the cap {lane_cap}; "
            "use a targeted vector or raise the cap"
        )
    vectors = list(itertools.product(range(params.kappa + 1), repeat=params.n_classes))
    return A2Family(params, vectors)


@dataclass(frozen=True)
class AlgoChoice:
    """Outcome of the machine-count dispatch between the two families."""

    kind: str  # "a1" or "a2"
    eps: Fraction
    m: int
    T: Fraction
    threshold: Fraction


def a3_dispatch(eps: Fraction, m: int, T: Fraction) -> AlgoChoice:
    """Configuration family when m clears the threshold, else census at 1/3."""
    eps = Fraction(eps)
    params = a2_params(eps, m, Fraction(T))
    threshold = params.threshold()
    if Fraction(m) < threshold:
        return AlgoChoice("a1", Fraction(1, 3), m, Fraction(T), threshold)
    return AlgoChoice("a2", eps, m, Fraction(T), threshold)
