"""The verify checks' one verdict, and every check driven to FAIL by a planted defect."""

import re
from fractions import Fraction

import pytest

from monogamy import checks, cli
from monogamy import extendibility as ext
from monogamy.diagrams import compose
from monogamy.partitions import content

from conftest import counting_operator

CAP = 64
FAIL_DETAIL = re.compile(r"mismatches: (.+) \((\d+) in all\)")
isotropic_pair_state = ext.isotropic_pair_state
certificate_traces = ext._certificate_traces


def _one_more_loop(a, b):
    result, loops = compose(a, b)
    return result, loops + 1


def _one_more_flip_trace(n, d):
    """The class sums with Tr[F_01 A] one too high."""
    t, flips = certificate_traces(n, d)
    return t, flips + 1


# check -> (module, attribute, planted replacement), each breaking one side of that check
DEFECTS = {
    "check_dual_solvers_exact": (ext, "p_iso_prime", lambda n, d: Fraction(0)),
    "check_brauer_composition": (checks, "compose", _one_more_loop),
    "check_jm_spectra": (checks, "content", lambda mu: content(mu) + 0.5),
    "check_joint_spectrum_easy_pairs": (checks, "content", lambda mu: content(mu) + 0.5),
    "check_ppt_region": (ext, "brauer_is_ppt", lambda p, q, d: True),
    "check_conjecture_probe": (
        ext, "conjecture_probe", lambda *args, **kwargs: {"gap": 1.0, "tolerance": 0.5}
    ),
    "check_asymptotics": (ext, "p_iso", lambda n, d: Fraction(1)),
    "check_oracle_closed_forms": (ext, "p_w_complete", lambda n, d: Fraction(0)),
    "check_primal_certificates": (ext, "p_w_complete", lambda n, d: Fraction(0)),
    "check_matching_states": (
        ext, "isotropic_pair_state", lambda pp, d: isotropic_pair_state(pp / 2, d)
    ),
    "check_iso_dual_numeric": (ext, "p_iso_prime", lambda n, d: Fraction(0)),
    "check_cycle_values": (ext, "LN2", 1.0),
    "check_bipartite": (ext, "p_iso_bipartite", lambda n, m, d: Fraction(1)),
}


class TestVerdict:
    def test_pass_keeps_summary(self):
        assert checks.verdict("x", [], "3 points") == ("x", True, "3 points")

    def test_failure_lists_first_five_and_the_count(self):
        name, ok, detail = checks.verdict("x", [(n, 2) for n in range(7)], "unused")
        assert (name, ok) == ("x", False)
        assert detail == "mismatches: (0, 2); (1, 2); (2, 2); (3, 2); (4, 2) (7 in all)"

    def test_every_check_returns_through_verdict(self, monkeypatch):
        seen, verdict = [], checks.verdict

        def recording(name, bad, summary):
            seen.append(name)
            return verdict(name, bad, summary)

        monkeypatch.setattr(checks, "verdict", recording)
        names = [check(1)[0] for check in checks.CHECKS]
        assert seen == names
        assert len(set(names)) == len(checks.CHECKS)


def test_every_check_has_a_planted_defect():
    assert sorted(DEFECTS) == sorted(check.__name__ for check in checks.CHECKS)


def assert_fails_with_mismatches(check):
    _, ok, detail = check(CAP)
    assert not ok
    match = FAIL_DETAIL.fullmatch(detail)
    assert match, detail
    total = int(match.group(2))
    assert len(match.group(1).split("; ")) == min(total, checks.SHOWN) <= 5


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda check: check.__name__)
def test_planted_defect_fails_its_check(monkeypatch, check):
    module, attr, planted = DEFECTS[check.__name__]
    monkeypatch.setattr(module, attr, planted)
    assert_fails_with_mismatches(check)


def test_planted_certificate_defect_fails_the_primal_check(monkeypatch):
    # DEFECTS breaks the closed-form side of this check; this breaks the certificate side
    monkeypatch.setattr(ext, "_certificate_traces", _one_more_flip_trace)
    assert_fails_with_mismatches(checks.check_primal_certificates)


def test_verify_with_a_planted_defect_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(ext, "LN2", 1.0)
    code = cli.main(["verify", "--budget", str(CAP)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    assert fails == [ln for ln in lines if ln.startswith("FAIL cycle-werner-values: mismatches:")]
    assert len(fails) == 1
    assert len([ln for ln in lines if ln.startswith("PASS ")]) == len(checks.CHECKS) - 1
    assert lines[-1] == "FAILED (1 failing checks)"


@pytest.mark.parametrize(
    "check", [checks.check_oracle_closed_forms, checks.check_bipartite],
    ids=lambda check: check.__name__,
)
def test_numeric_pass_detail_shows_the_worst_error(check):
    _, ok, detail = check(CAP)
    match = re.search(r"worst error (\S+), tol (\S+)$", detail)
    assert ok and match, detail
    assert float(match.group(1)) <= float(match.group(2))


def test_oracle_check_makes_the_same_matvecs_every_run(monkeypatch):
    # the eigensolver draws only its seeded start vector, so the products a
    # check makes do not depend on what ran before it in the process
    counts = []
    edge_sum = ext.edge_sum
    monkeypatch.setattr(
        ext, "edge_sum", lambda *args: counting_operator(edge_sum(*args), counts[-1])
    )
    for _ in range(2):
        counts.append([0])
        assert checks.check_oracle_closed_forms(4096)[1]
    assert counts[0] == counts[1] != [0]
