"""Generator for separating instances: memory c = b + 1 wins, memory b loses.

Given a memory spec b, the constructor builds removal and arrival tables on
which the randomized oldest-first strategy surely wins with one extra day
of memory (c(i) = min(b(i) + 1, i)) yet almost surely loses with memory b.

The recurrence works against c: at step i it computes the very-old level
Ltilde_c(i) from the values fixed so far, sets

    r(i) = max(i + 1, Ltilde_c(i))

and assigns s(j) := r(i)**3 on the positions j = i - c(i) + 1 ... (i + 1) -
c(i + 1) that night i + 1's window slide newly exposes (the ranges at
consecutive steps are disjoint and consecutive, so every position is
written exactly once). Two consequences are machine-checked here:

* under c the very-old pool never exceeds the quota (Ltilde_c(i) <= r(i)
  at every index), so every pool is swept whole — a sure win;
* under b the pool also contains the cubed batch, making each survival
  term at most 1/i^2 — a convergent majorant, so some bag survives with
  positive probability and the Sheriff wins almost surely.

The ``max(i + 1, .)`` lower bound (rather than ``i``) keeps r(1) = 2 < 8 =
s(1) — with lower bound i the first index would get r(1) = 1 and
s(1) = 1**3, violating r < s. Early terms never affect convergence, and
the choice strengthens the majorant to 1/(i + 1)^2.

Values roughly cube per step, so digit counts triple; the digit budget
aborts oversized requests with LimitExceeded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable

from .analysis import (
    KIND_ROBIN_SURELY,
    KIND_SHERIFF_AS,
    RULE_BOUNDED_GAP,
    RULE_CONVERGENT,
    RULE_PINNED_POOL,
    SEPARATION_GENERATOR,
    classify,
)
from .errors import (
    DEFAULT_DIGIT_BUDGET,
    LimitExceeded,
    RestrictionViolated,
    SpecInvalid,
    ValidityViolated,
    VerificationFailed,
    budget_bits,
    guard_digits,
)
from .schedule import (
    FunctionSpec,
    GameInstance,
    ScheduleSpec,
    bounded_memory_gap,
    canonical_dumps,
    decimal_str,
    open_output,
    spec_plus_one,
)

DEVIATION_NOTE = "r=max(i+1,Ltilde_c)"

@dataclass(frozen=True)
class StepCertificate:
    """Per-index witness values recorded during construction.

    ``ltilde_b`` (and the unreduced term r(i)/Ltilde_b(i)) is None when the
    generated arrival table is too short to determine it, which can happen
    for memory specs whose window gap plateaus near the end of the budget.
    """

    i: int
    r: int
    ltilde_c: int
    ltilde_b: int | None
    term_b: tuple[int, int] | None  # (numerator, denominator), unreduced

    def as_obj(self, text: Callable[[int], str] = decimal_str) -> dict[str, Any]:
        term = self.term_b
        return {
            "i": self.i,
            "r": text(self.r),
            "Ltilde_c": text(self.ltilde_c),
            "Ltilde_b": text(self.ltilde_b) if self.ltilde_b is not None else None,
            "term_b": f"{text(term[0])}/{text(term[1])}" if term is not None else None,
        }


@dataclass(frozen=True)
class SeparationInstance:
    """A generated schedule pair with its per-index certificates."""

    b_spec: FunctionSpec
    c_spec: FunctionSpec
    r_table: tuple[int, ...]
    s_table: tuple[int, ...]
    steps: int
    certificates: tuple[StepCertificate, ...]

    def _provenance(self, role: str) -> dict[str, Any]:
        return {
            "generator": SEPARATION_GENERATOR,
            "role": role,
            "deviation": DEVIATION_NOTE,
            "steps": self.steps,
        }

    def schedule_b(self) -> ScheduleSpec:
        """Schedule under the losing memory bound b."""
        return ScheduleSpec(
            r_spec=FunctionSpec.generated(self.r_table),
            s_spec=FunctionSpec.generated(self.s_table),
            b_spec=self.b_spec,
            provenance=self._provenance("b"),
        )

    def schedule_c(self) -> ScheduleSpec:
        """Schedule under the winning memory bound c = b + 1."""
        return ScheduleSpec(
            r_spec=FunctionSpec.generated(self.r_table),
            s_spec=FunctionSpec.generated(self.s_table),
            b_spec=self.c_spec,
            provenance=self._provenance("c"),
        )

    def certificate_obj(self, text: Callable[[int], str] = decimal_str) -> dict[str, Any]:
        return {
            "deviation": DEVIATION_NOTE,
            "steps": self.steps,
            "memory_b": self.b_spec.to_obj(text),
            "memory_c": self.c_spec.to_obj(text),
            "per_index": [cert.as_obj(text) for cert in self.certificates],
        }


def _show(value: Any) -> str:
    """``str(value)``, with ints, also in a pair, written by ``decimal_str`` at any size."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ")"
    return decimal_str(value) if isinstance(value, int) else str(value)


def _memory_values(b_spec: FunctionSpec, upto: int) -> list[int]:
    """Clamped memory values b(1)..b(upto); index 0 unused."""
    values = [0] * (upto + 1)
    for i in range(1, upto + 1):
        raw = b_spec.value_at(i)
        if raw < 0:
            raise SpecInvalid(f"memory bound b({i}) = {_show(raw)} is negative")
        values[i] = min(raw, i)
    return values


def separating_instance(
    b_spec: FunctionSpec,
    steps: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> SeparationInstance:
    """Run the construction for ``steps`` removal values.

    Raises RestrictionViolated when b's memory gap can shrink or is provably
    bounded (``Prop1.1``: Robin then surely wins with memory b), ValidityViolated
    if any finished index has r(i) >= s(i), LimitExceeded when values
    outgrow the digit budget, and SpecInvalid, naming the least steps that
    works, when the b file would end before classify could certify it (it holds
    no night at all while the widened gap i - c(i) has not opened).
    """
    if steps < 1:
        raise SpecInvalid(f"steps must be >= 1, got {steps}")

    # Restriction 1 breaks, if anywhere, by night t + 1 for t table values (a tail a * i + c keeps
    # it for a <= 1, and for a >= 2 breaks it at once or never), so every steps is refused alike.
    prefix, closed = b_spec.flat
    through = steps if closed is None else max(steps, len(prefix) + 1)
    b_vals = _memory_values(b_spec, through + 1)
    for i in range(1, through + 1):
        if b_vals[i + 1] > b_vals[i] + 1:
            raise RestrictionViolated(
                f"memory bound grows too fast at night {i}: b({i + 1}) > b({i}) + 1"
            )
    bound = bounded_memory_gap(b_spec)
    if bound is not None:
        raise RestrictionViolated(
            f"memory gap i - b(i) is at most {_show(bound)} ({RULE_BOUNDED_GAP}): Robin surely wins"
            " with memory b, so no instance separates b from b + 1"
        )
    c_vals = [0] + [min(b_vals[i] + 1, i) for i in range(1, steps + 2)]
    gaps = [0] + [i - c_vals[i] for i in range(1, steps + 2)]
    # Nondecreasing gaps follow from the memory restriction just checked.
    if any(gaps[i + 1] < gaps[i] for i in range(1, steps + 1)):
        raise VerificationFailed("window gap i - c(i) shrinks despite the memory restriction")

    max_bits = budget_bits(digit_budget)
    r_table: list[int] = []
    s_table: list[int] = []
    ltilde_c_list: list[int] = []
    s_sum = 0  # sum of all assigned arrivals = prefix sum through gaps[i]
    r_sum = 0
    checked_through = 0

    for i in range(1, steps + 1):
        if len(s_table) != gaps[i]:
            raise VerificationFailed(f"arrival coverage out of sync with the window gap at step {i}")
        ltilde_c = max(0, s_sum - r_sum)
        r_i = max(i + 1, ltilde_c)
        guard_digits(r_i, digit_budget, context=f"removal value at step {i}")
        r_table.append(r_i)
        ltilde_c_list.append(ltilde_c)
        r_sum += r_i

        if gaps[i + 1] > len(s_table):
            if 3 * r_i.bit_length() > max_bits:
                raise LimitExceeded(
                    f"cube of the step-{i} removal value would exceed the digit budget"
                    f" ({digit_budget} digits)"
                )
            cube = r_i**3
            for _ in range(len(s_table), gaps[i + 1]):
                s_table.append(cube)
                s_sum += cube
            guard_digits(s_sum, digit_budget, context=f"arrival sum after step {i}")

        limit = min(len(r_table), len(s_table))
        for j in range(checked_through + 1, limit + 1):
            if not r_table[j - 1] < s_table[j - 1]:
                raise ValidityViolated(
                    f"generated r({j}) = {_show(r_table[j - 1])} >= s({j}) = {_show(s_table[j - 1])}"
                )
        checked_through = limit

    # Certificates from the finished tables.
    s_prefix = list(accumulate(s_table, initial=0))
    r_prefix = list(accumulate(r_table, initial=0))

    certificates: list[StepCertificate] = []
    for i in range(1, steps + 1):
        upper = i - b_vals[i]
        ltilde_b: int | None = None
        term: tuple[int, int] | None = None
        if upper <= len(s_table):
            ltilde_b = max(0, s_prefix[upper] - r_prefix[i - 1])
            if ltilde_b > 0:
                term = (r_table[i - 1], ltilde_b)
        certificates.append(
            StepCertificate(
                i=i,
                r=r_table[i - 1],
                ltilde_c=ltilde_c_list[i - 1],
                ltilde_b=ltilde_b,
                term_b=term,
            )
        )

    # classify reads the b file alone, nights 1..n - b(n + 1) for n steps: Thm2.2 needs night 2 and
    # a night past the restriction-2 prefix 1..g - 1, g the first day with b(g) < g (pools before g are
    # empty; g's holds a cube past all quotas). Gap and file only grow (Restriction 1): both are searched.
    prefix = _first(lambda i: b_spec.value_at(i) < i, 1) - 1
    need = max(2, prefix + 1)
    if len(s_table) < need:
        least = _first(lambda n: n - min(b_spec.value_at(n + 1), n) >= need, steps + 1)
        raise SpecInvalid(
            f"steps={steps} is too few: the b file holds nights 1..{len(s_table)}, and classify needs"
            f" night {_show(need)}, past its restriction-2 prefix 1..{_show(prefix)} and at least 2;"
            f" the least steps that works is {_show(least)}"
        )

    return SeparationInstance(
        b_spec=b_spec,
        c_spec=spec_plus_one(b_spec),
        r_table=tuple(r_table),
        s_table=tuple(s_table),
        steps=steps,
        certificates=tuple(certificates),
    )


def _first(holds: Callable[[int], bool], lo: int) -> int:
    """The least n >= lo where ``holds``, for a test that fails below some n and holds from it on."""
    hi = lo
    while not holds(hi):  # gallop, so an astronomical n costs O(log n) tests
        lo, hi = hi + 1, 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return lo


def _fail(name: str, i: int, detail: str) -> VerificationFailed:
    return VerificationFailed(f"{name} fails at index {i}: {detail}")


def verify_separation(
    instance: SeparationInstance,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> dict[str, Any]:
    """Re-derive every certificate from the raw tables and check all claims.

    Nothing stored is trusted: very-old levels are recomputed through the
    schedule module (directly from prefix sums for the few indices past the
    playable horizon), inequalities are re-checked exactly, and both
    schedule roles are re-classified. Raises ValidityViolated for a broken
    r < s, VerificationFailed for the first violated certificate.
    """
    steps = instance.steps
    r_table = instance.r_table
    s_table = instance.s_table
    if len(r_table) != steps:
        raise VerificationFailed(f"removal table has {len(r_table)} entries, expected {steps}")

    for j in range(1, min(len(r_table), len(s_table)) + 1):
        if not 1 <= r_table[j - 1] < s_table[j - 1]:
            raise ValidityViolated(
                f"r({j}) = {_show(r_table[j - 1])} >= s({j}) = {_show(s_table[j - 1])}"
            )

    b_vals = _memory_values(instance.b_spec, steps)
    c_vals_direct = [0] + [min(b_vals[i] + 1, i) for i in range(1, steps + 1)]
    for i in range(1, steps):
        if b_vals[i + 1] > b_vals[i] + 1:
            raise _fail("memory restriction under b", i, f"b({i + 1}) > b({i}) + 1")
        if c_vals_direct[i + 1] > c_vals_direct[i] + 1:
            raise _fail("memory restriction under c", i, f"c({i + 1}) > c({i}) + 1")

    spec_b = instance.schedule_b()
    spec_c = instance.schedule_c()
    inst_b = GameInstance(spec_b, horizon_cap=steps, digit_budget=digit_budget)
    inst_c = GameInstance(spec_c, horizon_cap=steps, digit_budget=digit_budget)

    # The playable horizon ends where the arrival table does; certificates
    # past it are recomputed from the same prefix-sum formula directly.
    s_prefix = list(accumulate(s_table, initial=0))
    r_prefix = list(accumulate(r_table, initial=0))

    def ltilde(i: int, mem: int) -> int | None:
        upper = i - mem
        if upper > len(s_table):
            return None
        return max(0, s_prefix[upper] - r_prefix[i - 1])

    for i in range(1, min(steps, inst_c.horizon_cap) + 1):
        if inst_c.very_old_level(i) != ltilde(i, min(c_vals_direct[i], i)):
            raise _fail("schedule-module agreement under c", i, "direct and cached levels differ")
        if inst_b.very_old_level(i) != ltilde(i, b_vals[i]):
            raise _fail("schedule-module agreement under b", i, "direct and cached levels differ")

    if len(instance.certificates) != steps:
        raise VerificationFailed(
            f"certificate list has {len(instance.certificates)} entries, expected {steps}"
        )

    r2_violations: list[int] = []
    uncoverable: list[int] = []
    for cert in instance.certificates:
        i = cert.i
        r_i = r_table[i - 1]
        if cert.r != r_i:
            raise _fail("stored removal value", i, f"{_show(cert.r)} != {_show(r_i)}")

        lc = ltilde(i, c_vals_direct[i])
        if lc is None or cert.ltilde_c != lc:
            raise _fail("stored Ltilde_c", i, f"{_show(cert.ltilde_c)} != recomputed {_show(lc)}")
        if not lc <= r_i:
            raise _fail("pinned pool under c", i, f"Ltilde_c({i}) = {_show(lc)} > r({i}) = {_show(r_i)}")

        lb = ltilde(i, b_vals[i])
        if cert.ltilde_b != lb:
            raise _fail("stored Ltilde_b", i, f"{_show(cert.ltilde_b)} != recomputed {_show(lb)}")
        if lb is None:
            uncoverable.append(i)
            continue

        expected_term = (r_i, lb) if lb > 0 else None
        if cert.term_b != expected_term:
            raise _fail("stored term", i, f"{_show(cert.term_b)} != recomputed {_show(expected_term)}")

        # Identity Ltilde_b = Ltilde_c + s(i - b(i)) where it is forced:
        # the window under c is exactly one day shorter and the pool under
        # c is not clamped at zero.
        upper_b = i - b_vals[i]
        eligible = (
            b_vals[i] < i
            and c_vals_direct[i] == b_vals[i] + 1
            and s_prefix[i - c_vals_direct[i]] - r_prefix[i - 1] >= 0
        )
        if eligible and lb != lc + s_table[upper_b - 1]:
            raise _fail(
                "window-slide identity",
                i,
                f"Ltilde_b = {_show(lb)} != Ltilde_c + s({upper_b}) = {_show(lc + s_table[upper_b - 1])}",
            )
        if eligible and r_i**3 > lb:
            raise _fail("cubed lower bound", i, f"term exceeds 1/r({i})^2")

        if lb <= r_i:
            r2_violations.append(i)
        elif i >= 2 and r_i * i * i > lb:
            raise _fail("square majorant", i, f"term r({i})/Ltilde_b({i}) > 1/{i}^2")

    if r2_violations != list(range(1, len(r2_violations) + 1)) or len(r2_violations) >= steps:
        raise VerificationFailed(
            "very-old pool under b does not eventually exceed the quota:"
            f" violations at {r2_violations} are not a proper prefix of 1..{steps}"
        )

    if inst_b.horizon_cap < 2:
        raise VerificationFailed(f"the b file holds nights 1..{inst_b.horizon_cap}: too few to classify")
    verdict_c = classify(inst_c, inst_c.horizon_cap)
    verdict_b = classify(inst_b, inst_b.horizon_cap)
    if (verdict_c.kind, verdict_c.rule) != (KIND_ROBIN_SURELY, RULE_PINNED_POOL):
        raise VerificationFailed(
            f"expected the c-side verdict ({KIND_ROBIN_SURELY}, {RULE_PINNED_POOL}),"
            f" got ({verdict_c.kind}, {verdict_c.rule})"
        )
    if (verdict_b.kind, verdict_b.rule) != (KIND_SHERIFF_AS, RULE_CONVERGENT):
        raise VerificationFailed(
            f"expected the b-side verdict ({KIND_SHERIFF_AS}, {RULE_CONVERGENT}),"
            f" got ({verdict_b.kind}, {verdict_b.rule})"
        )

    return {
        "ok": True,
        "steps": steps,
        "playable_horizon": inst_b.horizon_cap,
        "uncoverable_indices": uncoverable,
        "restriction2_violation_prefix_under_b": r2_violations,
        "verdict_c": verdict_c.as_dict(),
        "verdict_b": verdict_b.as_dict(),
    }


def write_instance_files(
    instance: SeparationInstance, out_path: str, text: Callable[[int], str] | None = None
) -> dict[str, str]:
    """Write the three canonical-JSON artifacts next to ``out_path``.

    ``out.json`` becomes ``out.b.json`` (schedule under b), ``out.c.json``
    (schedule under c), and ``out.cert.json`` (per-index certificates).
    The files share most integers, so each distinct value is converted once,
    by ``text`` or else by a memoized ``decimal_str``; an unopenable file is SpecInvalid.
    """
    text = text or functools.cache(decimal_str)
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    paths = {
        "b": f"{stem}.b.json",
        "c": f"{stem}.c.json",
        "certificate": f"{stem}.cert.json",
    }
    contents = {
        "b": instance.schedule_b().to_obj(text),
        "c": instance.schedule_c().to_obj(text),
        "certificate": instance.certificate_obj(text),
    }
    for key, path in paths.items():
        with open_output(path, "output file") as fh:
            fh.write(canonical_dumps(contents[key]))
            fh.write("\n")
    return paths
