"""Acceptance gate: every check in `mbonacci.verify.CHECKS` at full scale.

`mbonacci verify --full` runs the same checks.  Each becomes one test,
`test_criterion_<nn>_<name>`, that prints a PASS line; run
`pytest tests/test_acceptance.py -v -s` to see the lines with timings.
"""

import dataclasses

import pytest

from mbonacci import numeration, rotation, verify


def _criterion(check: verify.Check):
    def test():
        result = verify.run_check(check, full=True)
        assert result.passed, result.detail
        print(f"ACCEPTANCE {check.number:2d} PASS  {check.name}: {result.detail}  "
              f"[{result.seconds:.2f}s]")

    test.__name__ = test.__qualname__ = (
        f"test_criterion_{check.number:02d}_{check.name.replace(' ', '_')}")
    return test


for _check in verify.CHECKS:
    _test = _criterion(_check)
    globals()[_test.__name__] = _test


# Criterion 1 checks the codes of `numeration.digit_codes` that the bulk
# paths count with; a planted wrong code must fail it, at both scales.

def _wrong_code_bit(codes):
    codes[5] ^= 1 << 3
    return "roundtrip broken"


def _bit_past_the_basis(codes):
    codes[7] |= 1 << 62
    return "roundtrip broken"


def _inadmissible_code(codes):
    # 3 = 1 + 2 keeps the value, but for m = 2 two adjacent ones are not greedy
    codes[3] = 0b11
    return "admissibility violated"


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("plant", [_wrong_code_bit, _bit_past_the_basis, _inadmissible_code])
def test_criterion_01_fails_on_a_wrong_code_bit(monkeypatch, plant, full):
    digit_codes = numeration.digit_codes
    messages = []

    def mutant(sys, count):
        codes = digit_codes(sys, count)
        messages.append(plant(codes))
        return codes

    monkeypatch.setattr(numeration, "digit_codes", mutant)
    check = next(c for c in verify.CHECKS if c.number == 1)
    result = verify.run_check(check, full=full)
    assert not result.passed
    assert result.detail == f"{messages[0]} for m=2"


# Criterion 13 compares the scalar address `rotation.subtile_of` with the
# bulk counts of `rotation.membership_counts`; a wrong letter on either route
# must fail it, at both scales.

def _wrong_scalar_letter(monkeypatch):
    subtile_of = rotation.subtile_of

    def mutant(sys, n, k):
        addr = subtile_of(sys, n, k)
        return dataclasses.replace(addr, letter=addr.letter % sys.m + 1) if n == 1 else addr

    monkeypatch.setattr(rotation, "subtile_of", mutant)


def _wrong_bulk_letter(monkeypatch):
    membership_counts = rotation.membership_counts

    def mutant(sys, k, N):
        keys, letters, counts = membership_counts(sys, k, N)
        letters[1] = letters[1] % sys.m + 1
        return keys, letters, counts

    monkeypatch.setattr(rotation, "membership_counts", mutant)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("mutate", [_wrong_scalar_letter, _wrong_bulk_letter])
def test_criterion_13_fails_on_a_wrong_letter(monkeypatch, mutate, full):
    mutate(monkeypatch)
    check = next(c for c in verify.CHECKS if c.number == 13)
    result = verify.run_check(check, full=full)
    assert not result.passed
    assert "subtile_of and membership_counts differ" in result.detail


# Criterion 13 also holds the closed form of `rotation.letter_counts`, which
# reads the code of the count alone, against the bulk counts, so a closed
# form without its [P < L] term, or with one more in Q_l, must fail it, at
# both scales, naming the two routes.

def _without_the_carry(q, above):
    return q, 0


def _one_more_in_q(q, above):
    return q + 1, above


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("plant", [_without_the_carry, _one_more_in_q])
def test_criterion_13_fails_on_a_wrong_closed_form(monkeypatch, plant, full):
    letter_counts = rotation.letter_counts

    def mutant(sys, k, N):
        return [plant(q, above) for q, above in letter_counts(sys, k, N)]

    monkeypatch.setattr(rotation, "letter_counts", mutant)
    check = next(c for c in verify.CHECKS if c.number == 13)
    result = verify.run_check(check, full=full)
    # at quick scale the count 2000 has code 1001000001001000, whose digits
    # 0 and 1 are 0, so levels 0 and 1 have no address at Q_l + 1
    level = 2 if plant is _without_the_carry and not full else 0
    assert not result.passed
    assert result.detail == (
        f"level-{level} counts of letter_counts and membership_counts differ (m=2)")


# Criteria 5 and 6 read the level-k intervals of `rotation.level_intervals`.
# A smaller run r only widens an interval, so criterion 6 cannot see it, but
# criterion 5's gap check must; a left end moved off vdc(n) must fail
# criterion 6.  Both at both scales.

def _run_with_planted_interval(monkeypatch, number, plant, full):
    level_intervals = rotation.level_intervals

    def mutant(sys, k, N):
        n_k, r = level_intervals(sys, k, N)
        plant(k, n_k, r)
        return n_k, r

    monkeypatch.setattr(rotation, "level_intervals", mutant)
    check = next(c for c in verify.CHECKS if c.number == number)
    return verify.run_check(check, full=full)


@pytest.mark.parametrize("full", [False, True])
def test_criterion_05_fails_on_a_smaller_run(monkeypatch, full):
    def plant(k, n_k, r):
        # n = 2 has code 10, so its level-2 run is 1 and its interval
        # [phi^-2, phi^-1) is not the last; run 0 stretches it by phi^-4
        if k == 2:
            r[2] -= 1

    result = _run_with_planted_interval(monkeypatch, 5, plant, full)
    assert not result.passed
    assert result.detail == "length off its gap by 1.46e-01 at m=2, k=2"


@pytest.mark.parametrize("full", [False, True])
def test_criterion_06_fails_on_a_wrong_left_end(monkeypatch, full):
    def plant(k, n_k, r):
        # n = 2 has code 10, so its level-1 interval starts at vdc(0) = 0;
        # vdc(2) = phi^-2 lies below vdc(1) = phi^-1, the planted start
        if k == 1:
            n_k[2] = 1

    result = _run_with_planted_interval(monkeypatch, 6, plant, full)
    assert not result.passed
    assert result.detail == "vdc(2) escaped its interval (m=2, k=1)"
