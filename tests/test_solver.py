import random

import pytest

from cycfix.bench import gen_snark
from cycfix.core import FixState, Permutation
from cycfix.solver import (MODES, RELABELS, BinaryProgram, Row, Settings,
                           node_propagate, solve)

from conftest import brute_force_optimum, planted_symmetric_bp


def simple_bp(n=4, rows=(), generators=(), objective=None):
    return BinaryProgram(
        n, list(objective) if objective else [1.0] * n,
        list(rows), None, list(generators))


class TestRowTypes:
    def test_row_make_sorts_and_validates(self):
        r = Row.make({2: 1.0, 0: -1.0}, "<=", 3.0)
        assert r.coeffs == ((0, -1.0), (2, 1.0))
        with pytest.raises(ValueError):
            Row.make({0: 1.0}, ">=", 0.0)

    def test_program_validation(self):
        with pytest.raises(ValueError):
            BinaryProgram(3, [1.0, 2.0], [], None, [])
        with pytest.raises(ValueError):
            BinaryProgram(3, [1.0] * 3, [], None,
                          [Permutation.identity(4)])

    def test_check_symmetry(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        rows = [Row.make({i: 1.0, (i + 1) % 3: 1.0}, "<=", 1.0)
                for i in range(3)]
        bp = simple_bp(3, rows, [gen], objective=[2.0, 2.0, 2.0])
        assert bp.check_symmetry(gen)
        bad = simple_bp(3, rows[:1], [gen], objective=[2.0, 2.0, 2.0])
        assert not bad.check_symmetry(gen)
        skew = simple_bp(3, rows, [gen], objective=[1.0, 2.0, 2.0])
        assert not skew.check_symmetry(gen)


class TestNodePropagate:
    def test_row_propagation_fixes_forced_entries(self):
        bp = simple_bp(3, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
                           Row.make({2: 1.0}, "==", 1.0)])
        res = node_propagate(bp, FixState(3, set(), {0}), Settings())
        assert res.feasible
        assert 1 in res.fixed0  # x0 = 1 forces x1 = 0
        assert 2 in res.fixed1  # equality row forces x2 = 1

    def test_row_conflict_is_infeasible(self):
        bp = simple_bp(2, [Row.make({0: 1.0, 1: 1.0}, "==", 2.0)])
        res = node_propagate(bp, FixState(2, {0}, set()), Settings())
        assert not res.feasible

    def test_nosym_ignores_generators(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        res = node_propagate(bp, FixState(3, {0}, set()),
                             Settings(mode="nosym"))
        assert res.fixed0 == frozenset({0})

    def test_group_mode_derives_symmetry_fixings(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        # x1 = 0 and the lex-leader constraints force x2 = x3 = 0
        res = node_propagate(bp, FixState(3, {0}, set()),
                             Settings(mode="group"))
        assert res.feasible
        assert res.fixed0 == frozenset({0, 1, 2})

    def test_peek_completes_the_cyclic_gap(self):
        gen = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        bp = simple_bp(5, [], [gen], objective=[1.0] * 5)
        fs = FixState(5, {1, 4}, set())
        nopeek = node_propagate(bp, fs.copy(), Settings(mode="nopeek"))
        peek = node_propagate(bp, fs.copy(), Settings(mode="peek"))
        assert nopeek.fixed0 == frozenset({1, 4})
        assert peek.fixed0 == frozenset({1, 3, 4})


class TestSolve:
    def test_unconstrained_all_ones(self):
        bp = simple_bp(4)
        res = solve(bp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0)
        assert res.incumbent == (1, 1, 1, 1)

    def test_infeasible_rows(self):
        bp = simple_bp(2, [Row.make({0: 1.0}, "==", 1.0),
                           Row.make({0: 1.0}, "<=", 0.0)])
        assert solve(bp).status == "infeasible"

    def test_negative_objective_prefers_zero(self):
        bp = simple_bp(3, objective=[-1.0, -2.0, 3.0])
        res = solve(bp)
        assert res.incumbent == (0, 0, 1)
        assert res.objective == pytest.approx(3.0)

    def test_deterministic_given_seed(self):
        rng = random.Random(1)
        bp = planted_symmetric_bp(rng, 8)
        a = solve(bp, Settings(mode="peek", seed=7))
        b = solve(bp, Settings(mode="peek", seed=7))
        assert (a.status, a.objective, a.incumbent, a.nodes) == \
            (b.status, b.objective, b.incumbent, b.nodes)

    def test_time_limit_status(self):
        rng = random.Random(2)
        bp = planted_symmetric_bp(rng, 14)
        res = solve(bp, Settings(mode="nosym", time_limit=0.0))
        assert res.status == "timelimit"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("relabel", RELABELS)
    def test_all_configs_match_enumeration(self, mode, relabel):
        rng = random.Random(hash((mode, relabel)) & 0xFFFF)
        for _ in range(5):
            bp = planted_symmetric_bp(rng, rng.randint(4, 9))
            best = brute_force_optimum(bp)
            res = solve(bp, Settings(mode=mode, relabel=relabel))
            if best is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(best[0])
                assert bp.is_feasible(res.incumbent)
                assert bp.objective_value(res.incumbent) == \
                    pytest.approx(best[0])

    def test_incumbent_reported_in_original_labels(self):
        rng = random.Random(3)
        for _ in range(10):
            bp = planted_symmetric_bp(rng, 7)
            res = solve(bp, Settings(mode="peek", relabel="respect"))
            if res.status == "optimal":
                assert bp.is_feasible(res.incumbent)
                assert bp.objective_value(res.incumbent) == \
                    pytest.approx(res.objective)


class TestSafeguardCaps:
    def test_settings_env_override(self, monkeypatch):
        monkeypatch.setenv("CYCFIX_MAX_PERMS", "17")
        monkeypatch.setenv("CYCFIX_MAX_WEIGHT", "1234")
        assert Settings().perm_caps() == (17, 1234)

    def test_explicit_settings_win(self, monkeypatch):
        monkeypatch.setenv("CYCFIX_MAX_PERMS", "17")
        assert Settings(max_perms=3).perm_caps()[0] == 3

    def test_caps_bound_group_expansion(self):
        gen = Permutation.from_cycles(12, [tuple(range(1, 13))])
        bp = simple_bp(12, [], [gen], objective=[0.0] * 12)
        res = solve(bp, Settings(mode="group", max_perms=2))
        assert res.status == "optimal"


# (nodes, sym_fixings) of flower snark solves per relabeling; every one is
# infeasible.
SNARK_PINS = {
    (3, "nopeek"): {"original": (21, 8), "max": (21, 19),
                    "min": (17, 9), "respect": (17, 10)},
    (3, "peek"): {"original": (21, 8), "max": (21, 19),
                  "min": (17, 9), "respect": (17, 10)},
    (5, "nopeek"): {"original": (53, 14), "max": (113, 42),
                    "min": (51, 19), "respect": (51, 20)},
    (5, "peek"): {"original": (53, 14), "max": (113, 39),
                  "min": (51, 18), "respect": (51, 19)},
}


@pytest.mark.parametrize("m, mode", sorted(SNARK_PINS))
def test_snark_search_pinned(m, mode):
    _, bp = gen_snark(m)
    for rl, (nodes, fixings) in SNARK_PINS[m, mode].items():
        res = solve(bp, Settings(mode=mode, relabel=rl))
        assert (res.status, res.nodes, res.sym_fixings) == \
            ("infeasible", nodes, fixings), rl
