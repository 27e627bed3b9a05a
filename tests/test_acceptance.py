"""Acceptance suite: the eight primary verification targets.

Each test states its runtime bound where one is part of the contract
and enforces it with a wall-clock assertion.
"""

import io
import itertools
import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from locmodel.admissible import adm_set, perm_set, stratum_count
from locmodel.cli import main
from locmodel import latmod
from locmodel.latmod import build_model, canonical_points, classify_strata, naive_points, torsor_check
from locmodel.matschemes import symplectic_P_points, unitary_points_direct, unitary_points_stratified
from locmodel.weyl import (
    Coweight,
    ParahoricSpec,
    RootDatum,
    bruhat_leq,
    length,
    translation,
)

from reference import elements_of_length_leq, enumerate_below, extended, total_count


def nonempty_subsets(labels):
    labels = sorted(labels)
    for k in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, k)


def minuscule_sums(d, max_e=3):
    """Distinct coweights omega_{r_1} + ... + omega_{r_e}, e <= max_e."""
    out = set()
    for e in range(1, max_e + 1):
        for combo in itertools.combinations_with_replacement(range(d + 1), e):
            mu = [0] * d
            for r in combo:
                for i in range(r):
                    mu[i] += 1
            out.add(tuple(mu))
    return sorted(out)


class TestCriterion1AdmEqualsPerm:
    """adm_set == perm_set across the full GL and GSp sweeps (< 10 min)."""

    elapsed = []

    @classmethod
    @contextmanager
    def timed(cls):
        t0 = time.monotonic()
        yield
        cls.elapsed.append(time.monotonic() - t0)

    @pytest.mark.parametrize(
        "d",
        [
            2,
            3,
            4,
            pytest.param(
                5,
                marks=extended("GL(5) sweep, 31 I (about 20 s): set LOCMODEL_EXTENDED=1"),
            ),
        ],
    )
    def test_gl_sweep(self, d):
        with self.timed():
            self.run_gl(d)

    def run_gl(self, d):
        datum = RootDatum("GL", d)
        for mu_value in minuscule_sums(d):
            mu = Coweight(datum, mu_value)
            for I in nonempty_subsets(datum.vertex_labels):
                spec = ParahoricSpec(datum, frozenset(I))
                assert adm_set(spec, mu).classes == perm_set(spec, mu).classes, (
                    mu_value,
                    I,
                )

    @pytest.mark.parametrize("g", [1, 2])
    def test_gsp_sweep(self, g):
        with self.timed():
            datum = RootDatum("GSp", g)
            for e in (1, 2):
                mu = Coweight(datum, (e,) * g + (e,))
                for I in nonempty_subsets(datum.vertex_labels):
                    spec = ParahoricSpec(datum, frozenset(I))
                    assert (
                        adm_set(spec, mu).classes == perm_set(spec, mu).classes
                    ), (e, I)

    def test_runtime_bound(self):
        assert sum(self.elapsed) < 600


def _compare(argv):
    """The exit code and JSON report of one compare-adm-perm line."""
    buf = io.StringIO()
    code = main(["compare-adm-perm", *argv, "--format", "json"], stream=buf)
    return code, json.loads(buf.getvalue())


class TestAdmPermBeyondMinuscule:
    def test_type_c4_perm_exceeds_adm(self):
        # GSp(8), mu = (3,2,2,2; 3): Perm has 128 classes that Adm lacks,
        # and Adm has none that Perm lacks (Adm is inside Perm)
        code, report = _compare(["--group", "gsp", "--g", "4", "--mu", "3,2,2,2,3", "--iwahori"])
        assert code == 1 and not report["pass"]
        assert report["totals"] == {"predicted": 8351, "observed": 8479}
        rows = report["rows"]
        assert not [row for row in rows if row["predicted"] == 1 and row["observed"] == 0]
        extra = [row for row in rows if row["predicted"] == 0]
        assert len(extra) == 128
        assert (extra[0]["w"]["translation"], extra[0]["length"]) == ("1,1,2,2,3", 11)

    @extended("GL(6) Iwahori compare (about 6 s): set LOCMODEL_EXTENDED=1")
    def test_gl6_iwahori(self):
        code, report = _compare(["--group", "gl", "--d", "6", "--mu", "3,2,1,0,0,0", "--iwahori"])
        assert code == 0 and report["totals"] == {"predicted": 53665, "observed": 53665}


class TestCriterion2Drinfeld:
    def brute_force_downset(self, datum, mu):
        # independent oracle: union of subword down-sets, no coset logic
        out = set()
        for lam in mu.orbit():
            out |= enumerate_below(translation(datum, lam))
        return out

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_counts(self, d):
        datum = RootDatum("GL", d)
        mu = Coweight(datum, (1,) + (0,) * (d - 1))
        spec = ParahoricSpec(datum, frozenset(datum.vertex_labels))
        s = adm_set(spec, mu)
        assert len(s) == 2**d - 1
        # Iwahori classes are singletons, so the down-set oracle agrees.
        assert len(self.brute_force_downset(datum, mu)) == 2**d - 1


class TestCriterion3DeskInstances:
    @pytest.mark.parametrize("p", [2, 3])
    def test_r11_strata(self, p):
        model = build_model("GL", 2, 2, {0}, p, (1, 1))
        datum = RootDatum("GL", 2)
        spec = ParahoricSpec(datum, frozenset({0}))
        s = adm_set(spec, Coweight(datum, (2, 0)))
        rep = classify_strata(canonical_points(model), s, model)
        assert rep.passed
        got = {c.min_rep.lam: n for c, n in rep.rows}
        assert got == {(2, 0): p * p + p, (1, 1): 1}
        assert sum(got.values()) == p * p + p + 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_r20_strict_inclusion(self, p):
        model = build_model("GL", 2, 2, {0}, p, (2, 0))
        naive = list(naive_points(model))
        canon = list(canonical_points(model))
        assert len(naive) == p * p + p + 1
        assert len(canon) == 1
        central = latmod.standard_point(
            translation(RootDatum("GL", 2), (1, 1)), model
        )
        assert canon == [central]


class TestCriterion4GL3Strata:
    elapsed = []

    @pytest.mark.parametrize("I", [(0,), (0, 1)])
    def test_strata_decomposition(self, I):
        t0 = time.monotonic()
        model = build_model("GL", 3, 2, set(I), 2, (1, 1))
        datum = RootDatum("GL", 3)
        spec = ParahoricSpec(datum, frozenset(I))
        # mu is the sum of the per-level minuscule coweights omega_1
        s = adm_set(spec, Coweight(datum, (2, 0, 0)))
        rep = classify_strata(canonical_points(model), s, model)
        assert rep.passed
        assert {c for c, _ in rep.rows} == set(s.classes)
        for c, n in rep.rows:
            assert n == stratum_count(c, 2)
        self.elapsed.append(time.monotonic() - t0)

    def test_runtime_bound(self):
        assert sum(self.elapsed) < 300


class TestCriterion5Torsor:
    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec",
        [
            ("GL", 2, 2, (0,), 2, (1, 1)),
            ("GL", 2, 2, (0,), 3, (1, 1)),
            ("GL", 2, 2, (0,), 2, (2, 0)),
            ("GL", 2, 2, (0,), 3, (2, 0)),
            ("GL", 3, 2, (0,), 2, (1, 1)),
            ("GL", 3, 2, (0, 1), 2, (1, 1)),
            # tameness requires p coprime to e, so the GSp instances
            # run at the two smallest odd primes
            ("GSp", 1, 2, (0,), 3, None),
            ("GSp", 1, 2, (0,), 5, None),
        ],
    )
    def test_torsor_identity(self, kind, size, e, I, p, r_vec):
        model = build_model(kind, size, e, set(I), p, r_vec)
        rep = torsor_check(model)
        assert rep.passed, rep


class TestCriterion6Symplectic:
    @pytest.mark.parametrize("p", [3, 5])
    def test_gsp1_canonical_strata(self, p):
        model = build_model("GSp", 1, 2, {0}, p)
        datum = RootDatum("GSp", 1)
        spec = ParahoricSpec(datum, frozenset({0}))
        s = adm_set(spec, Coweight(datum, (2, 2)))
        rep = classify_strata(canonical_points(model), s, model)
        assert rep.passed
        assert {c for c, _ in rep.rows} == set(s.classes)
        assert len(s.maximal_classes()) == 1
        for c, n in rep.rows:
            assert n == stratum_count(c, p)
        assert sum(n for _, n in rep.rows) == total_count(s, p)

    @extended("extended GSp(4) run: set LOCMODEL_EXTENDED=1")
    def test_gsp2_extended(self):
        from locmodel.errors import Budget, BudgetExceeded

        budget = Budget(int(os.environ.get("LOCMODEL_BUDGET", 10**7)))
        model = build_model("GSp", 2, 2, {0}, 3)
        datum = RootDatum("GSp", 2)
        spec = ParahoricSpec(datum, frozenset({0}))
        s = adm_set(spec, Coweight(datum, (2, 2, 2)))
        try:
            pts = list(canonical_points(model, budget=budget))
        except BudgetExceeded:
            pytest.skip("enumeration exceeds the configured budget")
        rep = classify_strata(pts, s, model)
        assert rep.passed
        for c, n in rep.rows:
            assert n == stratum_count(c, 3)


class TestFrontier:
    """Chain models that pass at the default budget since the chain
    backtracker visits only the options its containment table allows."""

    @staticmethod
    def run_default_budget(argv, monkeypatch):
        monkeypatch.delenv("LOCMODEL_BUDGET", raising=False)
        buf = io.StringIO()
        code = main(argv + ["--format", "json"], stream=buf)
        return code, json.loads(buf.getvalue())["totals"]

    @extended("GL(4) e=2 r=(2,1) I={0,2} at p=3 (about 3 s): set LOCMODEL_EXTENDED=1")
    def test_gl4_p3_strata(self, monkeypatch):
        argv = ["verify", "strata", "--group", "gl", "--d", "4", "--e", "2", "--r", "2,1", "--I", "0,2", "--p", "3"]
        code, totals = self.run_default_budget(argv, monkeypatch)
        assert code == 0
        assert totals == {"predicted": 19384, "observed": 19384, "naive": 19384, "canonical": 19384, "unmatched": 0}

    @extended("GSp(4) e=2 Iwahori at p=3 (about 10 s): set LOCMODEL_EXTENDED=1")
    def test_gsp2_iwahori_p3_symplectic(self, monkeypatch):
        argv = ["verify", "symplectic", "--g", "2", "--e", "2", "--iwahori", "--p", "3"]
        code, totals = self.run_default_budget(argv, monkeypatch)
        assert code == 0
        assert totals == {"predicted": 6265, "observed": 6265, "unmatched": 0, "maximal_classes": 4}


class TestCriterion7MatrixSchemes:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitary_strategies_agree(self, n, p):
        for r in range(n + 1):
            s = n - r
            assert (
                unitary_points_direct(n, r, s, p).by_rank
                == unitary_points_stratified(n, r, s, p).by_rank
            )

    @pytest.mark.parametrize("p", [2, 3])
    def test_symplectic_strategies_agree(self, p):
        assert symplectic_P_points(1, 2, p, "direct") == symplectic_P_points(
            1, 2, p, "linear"
        )


class TestCriterion8WeylProperties:
    elapsed = []

    @classmethod
    @contextmanager
    def timed(cls):
        t0 = time.monotonic()
        yield
        cls.elapsed.append(time.monotonic() - t0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_translation_length_formula(self, d):
        with self.timed():
            datum = RootDatum("GL", d)
            rng = random.Random(20240817 + d)
            two_rho = [d - 1 - 2 * i for i in range(d)]
            for _ in range(200):
                lam = tuple(rng.randint(-4, 4) for _ in range(d))
                expected = sum(
                    a * b for a, b in zip(sorted(lam, reverse=True), two_rho)
                )
                assert length(translation(datum, lam)) == expected

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_gsp_minuscule_length(self, g):
        with self.timed():
            datum = RootDatum("GSp", g)
            assert length(translation(datum, (1,) * g + (1,))) == g * (g + 1) // 2

    @pytest.mark.parametrize("kind,size", [("GL", 3), ("GSp", 2)])
    def test_bruhat_order_and_subword_oracle(self, kind, size):
        with self.timed():
            datum = RootDatum(kind, size)
            for kap in (0, 1):
                levels = elements_of_length_leq(datum, kap, 6)
                elems = [x for lvl in levels.values() for x in lvl]
                down = {}
                for y in elems:
                    below = enumerate_below(y)
                    down[y] = frozenset(x for x in elems if x in below)
                    for x in elems:
                        assert bruhat_leq(x, y) == (x in below)
                for y in elems:
                    assert y in down[y]
                    for x in down[y]:
                        assert down[x] <= down[y]
                        if x != y:
                            assert y not in down[x]

    def test_runtime_bound(self):
        assert sum(self.elapsed) < 120


class TestSuiteManifest:
    """End-to-end: the CLI runs an acceptance manifest and passes."""

    def test_manifest_suite(self, tmp_path):
        from locmodel.cli import main

        manifest = tmp_path / "acceptance.txt"
        manifest.write_text(
            "\n\n".join(
                [
                    "case=verify-strata\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\np=2\n"
                    "expect_naive=7\nexpect_canonical=7",
                    "case=verify-strata\ngroup=gl\nd=2\ne=2\nr=2,0\nI=0\np=2\n"
                    "expect_naive=7\nexpect_canonical=1",
                    "case=verify-torsor\ngroup=gsp\ng=1\ne=2\nI=0\np=3",
                    "case=verify-symplectic\ngroup=gsp\ng=1\ne=2\nI=0\np=3",
                    "case=verify-matrix\nn=2\nr=1\ns=1\np=5\nexpect_observed=9",
                    "case=verify-matrix\ng=1\ne=2\np=2",
                    "case=compare-adm-perm\ngroup=gl\nd=3\nmu=1,1,0\niwahori=true",
                ]
            )
            + "\n"
        )
        assert main(["run-suite", str(manifest)], stream=open(os.devnull, "w")) == 0
