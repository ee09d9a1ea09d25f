import math
import os
from fractions import Fraction

import pytest

from k2tlab import suites
from k2tlab.bounds import theorem_clique_r
from k2tlab.constructions import PRNG_NAME
from k2tlab.ramsey import known_ramsey
from k2tlab.suites import (
    SUITE_IDS,
    VIOLATION_LIMIT,
    SuiteResult,
    _pool_size,
    run_beta,
    run_clique_exhaustive,
    run_polarity,
    run_proof_inequalities,
    run_ramsey_small,
    run_suite,
    run_triangle_formula,
    run_triangle_theorem,
    run_turan_upper,
    run_witness_random,
)


class TestBetaSuite:
    def test_clean_grid(self):
        result = run_beta()
        assert result.passed
        assert result.checked == 101 * 9
        assert result.params == {"steps": 100, "t_max": 10}


class TestCliqueExhaustive:
    def test_small_range_clean(self):
        result = run_clique_exhaustive(n_max=5)
        assert result.passed
        assert result.checked > 0
        # alpha = 1 cases (one K_n per n and t) are recorded, not checked.
        assert result.boundary_cases == 8

    def test_shards_partition_the_space(self):
        whole = run_clique_exhaustive(n_max=4)
        pieces = [
            run_clique_exhaustive(n_max=4, shard=(i, 3)) for i in range(3)
        ]
        assert sum(p.checked for p in pieces) == whole.checked
        assert sum(p.boundary_cases for p in pieces) == whole.boundary_cases


class TestProofInequalities:
    def test_small_range_clean(self):
        result = run_proof_inequalities(n_max=5)
        assert result.passed
        assert result.checked == 2 + 8 + 64 + 1024
        assert result.details == {}

    def test_clique_guarantee_covers_the_averaging_instances(self):
        # proof-ineq does not check the averaged missing-edge inequality:
        # the proof applies it only to induced-K_{2,t}-free graphs with
        # omega <= r = theorem_clique_r(...), and clique-exhaustive already
        # requires omega >= r + 1 of every such graph.
        cases = 0
        for n in range(2, 8):
            pairs = math.comb(n, 2)
            for t in (2, 3, 4):
                table = suites._guarantee_table(n, t)
                for e in range(pairs):
                    r = theorem_clique_r(n, Fraction(e, pairs), t, known_ramsey)
                    if r is not None:
                        cases += 1
                        assert table[e][1] >= r + 1, (n, t, e)
        assert cases == 45


class TestRamseySmall:
    def test_values(self):
        result = run_ramsey_small()
        assert result.passed
        assert result.params == {"include_r34": True}
        assert result.details["values"]["R(3,3)"] == 6
        assert result.details["values"]["R(2,8)"] == 8
        assert result.details["values"]["R(3,4)"] == 9

    def test_flags_a_wrong_table_entry(self, monkeypatch):
        def wrong(t, r):
            return 7 if (t, r) == (3, 3) else known_ramsey(t, r)

        monkeypatch.setattr(suites, "known_ramsey", wrong)
        result = run_ramsey_small()
        assert result.violations == [
            {"claim": "ramsey R(3,3)", "graph6": None, "observed": "6", "required": "7"}
        ]


class TestPolaritySuite:
    def test_clean(self):
        result = run_polarity()
        assert result.passed
        assert result.params == {"qs": [2, 3, 5, 7]}
        assert result.details["stats"][3]["edges"] == 24


class TestTriangleTheoremSuite:
    def test_clean_and_delta_zero_for_k3(self):
        result = run_triangle_theorem(n_max=5)
        assert result.passed
        assert result.details["ramsey_ebar"] == 2
        assert set(result.details["delta"].values()) == {0}

    def test_refuses_n_above_cap_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the cap check")

        monkeypatch.setattr(suites, "ramsey_exact", refuse)
        monkeypatch.setattr(suites.bitslice, "windows", refuse)
        with pytest.raises(ValueError, match="cap at n = 7, got n_max = 8"):
            run_triangle_theorem(n_max=8)


class TestTuranUpper:
    def test_small_clean(self):
        result = run_turan_upper(n_max=5)
        assert result.passed
        assert result.checked > 0

    def test_shard_counters_merge(self):
        whole = run_turan_upper(n_max=5)
        skipped = whole.details["skipped_no_exact_ramsey"]
        assert skipped > 0
        pieces = [run_turan_upper(n_max=5, shard=(i, 3)) for i in range(3)]
        assert sum(p.details["skipped_no_exact_ramsey"] for p in pieces) == skipped


class TestWitnessRandom:
    def test_small_sweep_clean(self):
        result = run_witness_random()
        assert result.passed
        assert result.checked == 1000
        assert sum(result.details["outcomes"].values()) == 1000
        assert result.params == {
            "count": 1000,
            "n": 20,
            "ps": [0.3, 0.5, 0.7],
            "t": 2,
            "h": "C~",
            "prng": PRNG_NAME,
        }


class TestTriangleFormula:
    def test_clean(self):
        result = run_triangle_formula()
        assert result.passed
        assert result.checked == 25 * 19


class TestPool:
    @pytest.mark.parametrize("suite_id", ["clique-exhaustive", "proof-ineq", "turan-upper"])
    def test_workers_match_serial(self, suite_id, monkeypatch):
        # Shard 0/16 of n <= 7 holds two blocks of n = 7, so two workers
        # start a pool; two CPUs are reported so that one-CPU hosts do too.
        pools = []

        class Spy(suites.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(suites, "ProcessPoolExecutor", Spy)
        serial = run_suite(suite_id, n_max=7, workers=1, shard=(0, 16))
        assert pools == []
        pooled = run_suite(suite_id, n_max=7, workers=2, shard=(0, 16))
        assert pools == [2]
        fields = ("checked", "boundary_cases", "violation_count", "violations", "details")
        for name in fields:
            assert getattr(pooled, name) == getattr(serial, name), name


class TestPoolSize:
    def test_clamped_to_cpus_and_shards(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _pool_size(10**9, 10**9) == 4
        assert _pool_size(3, 10**9) == 3
        assert _pool_size(8, 2) == 2
        assert _pool_size(1, 5) == 1
        assert _pool_size(5, 0) == 1

    def test_serial_runs_count_no_cpus(self, monkeypatch):
        def refuse():
            raise AssertionError("os.cpu_count called for a serial run")

        monkeypatch.setattr(os, "cpu_count", refuse)
        assert _pool_size(1, 5) == 1
        assert _pool_size(8, 1) == 1
        assert _pool_size(5, 0) == 1

    def test_unknown_cpu_count_runs_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8, 8) == 1

    def test_library_rejects_workers_below_one(self):
        with pytest.raises(ValueError, match="workers"):
            run_clique_exhaustive(n_max=3, workers=0)


class TestViolationPlumbing:
    def test_passed_iff_no_violations(self):
        result = SuiteResult(suite="x", params={})
        assert result.passed
        result.add_violation("claim", 1, 2, graph6="A_")
        assert not result.passed
        assert result.violations[0] == {
            "claim": "claim",
            "graph6": "A_",
            "observed": "1",
            "required": "2",
        }

    def test_stored_violations_truncate_but_count_everything(self):
        result = SuiteResult(suite="x", params={})
        for i in range(VIOLATION_LIMIT + 50):
            result.add_violation(f"claim-{i}", i, i + 1)
        assert result.violation_count == VIOLATION_LIMIT + 50
        assert len(result.violations) == VIOLATION_LIMIT

    def test_merge_accumulates(self):
        result = SuiteResult(suite="x", params={})
        shard = {
            "checked": 7,
            "boundary": 2,
            "violation_count": 1,
            "violations": [
                {"claim": "c", "graph6": None, "observed": "o", "required": "r"}
            ],
        }
        result.merge_shard(shard)
        result.merge_shard(shard)
        assert result.checked == 14
        assert result.boundary_cases == 4
        assert result.violation_count == 2
        assert len(result.violations) == 2


class TestRegistry:
    def test_all_ids_runnable_cheaply(self):
        cheap = {
            "beta": {},
            "clique-exhaustive": {"n_max": 4},
            "proof-ineq": {"n_max": 4},
            "polarity": {},
            "triangle-thm": {"n_max": 4},
            "turan-upper": {"n_max": 4},
        }
        for suite_id, kwargs in cheap.items():
            result = run_suite(suite_id, n_max=kwargs.get("n_max"))
            assert result.passed, suite_id

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_ids_constant(self):
        assert set(SUITE_IDS) == {
            "beta",
            "clique-exhaustive",
            "proof-ineq",
            "ramsey-small",
            "polarity",
            "triangle-thm",
            "turan-upper",
            "witness-random",
            "triangle-formula",
        }

    @pytest.mark.parametrize(
        "suite_id", ["clique-exhaustive", "proof-ineq", "turan-upper"]
    )
    def test_exhaustive_suites_refuse_n_above_cap(self, suite_id):
        with pytest.raises(ValueError, match="cap at n = 7"):
            run_suite(suite_id, n_max=8)

    # The run_suite options each suite refuses, by command-line flag.
    REFUSED = {
        "beta": ["--shard", "--workers", "--nmax", "--t"],
        "clique-exhaustive": [],
        "proof-ineq": [],
        "ramsey-small": ["--shard", "--workers", "--nmax", "--t"],
        "polarity": ["--shard", "--workers", "--nmax", "--t"],
        "triangle-thm": ["--shard", "--workers"],
        "turan-upper": [],
        "witness-random": ["--shard", "--workers", "--nmax", "--t"],
        "triangle-formula": ["--shard", "--workers", "--nmax", "--t"],
    }
    # One value per option that a suite taking it rejects before any work.
    INVALID = {
        "--shard": {"shard": (5, 3)},
        "--workers": {"workers": 0},
        "--nmax": {"n_max": 1},
        "--t": {"t": 1},
    }

    @pytest.mark.parametrize("suite_id", REFUSED)
    @pytest.mark.parametrize("flag", INVALID)
    def test_option_matrix(self, suite_id, flag):
        with pytest.raises(ValueError) as err:
            run_suite(suite_id, **self.INVALID[flag])
        refusal = f"suite {suite_id} does not take {flag}"
        assert (str(err.value) == refusal) == (flag in self.REFUSED[suite_id])

    @pytest.mark.parametrize("suite_id", [s for s, flags in REFUSED.items() if flags])
    def test_refusals_named_in_flag_order(self, suite_id):
        everything = {"n_max": 3, "t": 2, "workers": 1, "shard": (0, 1)}
        with pytest.raises(ValueError) as err:
            run_suite(suite_id, **everything)
        refused = ", ".join(self.REFUSED[suite_id])
        assert str(err.value) == f"suite {suite_id} does not take {refused}"
