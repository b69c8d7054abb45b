"""The benchmark's oracles on hand-derived cases.

    python3 -m unittest discover -s bench -p "test_*.py"

Stdlib only; nothing here imports kstab.
"""

import os
import random
import sys
import unittest
from fractions import Fraction as F
from itertools import combinations, product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def braid_forms(g):
    forms = []
    for i, j in combinations(range(g), 2):
        row = [0] * g
        row[i], row[j] = 1, -1
        forms.append(row)
    return forms


class LatticeOracle(unittest.TestCase):
    def test_rank(self):
        self.assertEqual(oracles.rank([[1, 0], [0, 1], [1, 1]]), 2)
        self.assertEqual(oracles.rank([[1, 2], [2, 4], [-3, -6]]), 1)
        self.assertEqual(oracles.rank([[1, 1, 0], [0, 1, 1], [1, 0, -1]]), 2)

    def test_three_lines_in_the_plane(self):
        # flats: the three lines (1, 1) and the origin (2, 3)
        flats = oracles.lattice_flats([[1, 0], [0, 1], [1, 1]])
        self.assertEqual(
            flats,
            {frozenset({0}): 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({0, 1, 2}): 2},
        )
        self.assertEqual(
            oracles.lattice_lct([[1, 0], [0, 1], [1, 1]], 2),
            (F(2, 3), [(2, 3, (0, 1, 2))]),
        )

    def test_generic_is_min_one_n_over_m(self):
        forms = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        self.assertTrue(oracles.is_generic(forms, 3))
        self.assertEqual(oracles.lattice_lct(forms, 3)[0], F(3, 4))
        self.assertFalse(oracles.is_generic([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 3))

    def test_non_essential_arrangement_ties(self):
        # x = 0 and y = 0 in 3-space: every flat has rank == count
        value, mins = oracles.lattice_lct([[1, 0, 0], [0, 1, 0]], 3)
        self.assertEqual(value, 1)
        self.assertEqual(mins, [(1, 1, (0,)), (1, 1, (1,)), (2, 2, (0, 1))])

    def test_braid_lattice_agrees_with_closed_form(self):
        for g in (3, 4, 5):
            self.assertEqual(oracles.lattice_lct(braid_forms(g), g), oracles.braid_lct(g))

    def test_braid_closed_form(self):
        self.assertEqual(oracles.braid_lct(4), (F(1, 2), [(3, 6, (0, 1, 2, 3, 4, 5))]))


def diag(a, t=1, c=1, extra=()):
    n = len(a)
    gens = [[t * a[i] if j == i else 0 for j in range(n)] for i in range(n)]
    return {"kind": "diag", "a": list(a), "t": t, "gens": gens + [list(e) for e in extra], "c": F(c)}


def mono(d, c=1):
    return {"kind": "mono", "d": list(d), "gens": [list(d)], "c": F(c)}


class HowaldOracle(unittest.TestCase):
    def test_cusp(self):
        # (v1 + 1)/2 + (v2 + 1)/3 > 1 fails only at the origin
        self.assertEqual(oracles.howald_generators(2, [diag([2, 3])]), [(0, 1), (1, 0)])
        self.assertEqual(oracles.howald_lct(2, diag([2, 3])), F(5, 6))

    def test_maximal_ideal_squared(self):
        square = diag([1, 1], t=2, extra=[(1, 1)])
        self.assertEqual(oracles.howald_generators(2, [square]), [(0, 1), (1, 0)])

    def test_principal_is_floor(self):
        self.assertEqual(oracles.howald_generators(2, [mono([2, 3], F(3, 2))]), [(3, 4)])
        self.assertEqual(oracles.howald_lct(2, mono([2, 3])), F(1, 3))

    def test_unit_iff_below_lct(self):
        a = [2, 3]
        self.assertEqual(oracles.howald_generators(2, [diag(a, c=F(4, 5))]), [(0, 0)])
        self.assertNotEqual(oracles.howald_generators(2, [diag(a, c=F(5, 6))]), [(0, 0)])

    def test_skoda(self):
        a = diag([2, 2])
        for c in (2, F(5, 2), 3):
            whole = oracles.howald_generators(2, [dict(a, c=c)])
            part = oracles.howald_generators(2, [dict(a, c=c - 1)])
            self.assertEqual(whole, oracles.ideal_product([(2, 0), (0, 2)], part))

    def test_divisor_factoring(self):
        got = oracles.howald_generators(2, [mono([1, 0]), diag([2, 3])])
        self.assertEqual(got, [(1, 1), (2, 0)])

    def test_staircase_matches_membership(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 3)
            a = [rng.randint(1, 3) for _ in range(n)]
            factors = [diag(a, t=rng.randint(1, 2), c=F(rng.randint(1, 5), rng.randint(2, 3)))]
            if rng.random() < 0.5:
                factors.append(mono([rng.randint(0, 2) for _ in range(n)], F(rng.randint(1, 5), 2)))
            shift, scale, aa = oracles.product_shape(n, factors)
            box = [range(int(s + scale * ai) + 3) for s, ai in zip(shift, aa)]
            members = [v for v in product(*box) if oracles.howald_member(v, shift, scale, aa)]
            self.assertEqual(oracles.howald_generators(n, factors), oracles.minimalize(members))


class WeightOracle(unittest.TestCase):
    def test_reduced_point(self):
        # dim F_j = 2k + 1 - j for j <= k, so w = -k(k + 1)/2
        w = oracles.FlagWeights([{"p": 1}], 1)
        for k in range(1, 7):
            self.assertEqual(w.weight(k), F(-k * (k + 1), 2))

    def test_reduced_point_at_s_two(self):
        # 2k parts: sum_{j<=2k} (2k + 1 - j) - (2k + 1) 2k = -2k^2 - k
        w = oracles.FlagWeights([{"p": 1}], 2)
        for k in range(1, 5):
            self.assertEqual(w.weight(k), -2 * k * k - k)

    def test_fat_points(self):
        for m in (2, 3, 5, 7):
            w = oracles.FlagWeights([{"p": m}], 1)
            for k in (m, 2 * m, 3 * m):
                self.assertEqual(w.weight(k), (F(2, m) - 2) * (k * k + k))

    def test_fat_point_df0(self):
        # the m = 2..5 rows of kstab's fat-point table
        self.assertEqual([oracles.fat_point_df0(m) for m in (2, 3, 4, 5)], [4, F(16, 3), 6, F(32, 5)])

    def test_weight_agrees_with_composition_search(self):
        divisors = [{"p": 1, "q": 2}, {"p": 3, "q": 2}]
        costs = {lab: [0] + [d.get(lab, 0) for d in divisors] for lab in "pq"}
        w = oracles.FlagWeights(divisors, 1)
        for k in (1, 2, 3):
            degree = [0] * (2 * k + 1)
            for lab in "pq":
                best = {}
                for combo in product(range(3), repeat=k):
                    j, cost = sum(combo), sum(costs[lab][t] for t in combo)
                    best[j] = min(best.get(j, cost), cost)
                for j in range(2 * k + 1):
                    degree[j] += best[j]
            n = 2 * k + 1
            expected = sum(max(0, n - d) for d in degree[1:]) - n * 2 * k
            self.assertEqual(w.weight(k), expected)

    def test_fit_helpers(self):
        pts = [(k, 3 * k * k - k + 2) for k in (2, 3, 4, 5)]
        self.assertTrue(oracles.third_differences_vanish(pts))
        self.assertFalse(oracles.third_differences_vanish([(k, k ** 3) for k in (1, 2, 3, 4)]))
        self.assertEqual(oracles.quadratic_through(pts[:3]), (2, -1, 3))


class Checks(unittest.TestCase):
    def test_wrong_outputs_are_caught(self):
        checker = checks.Checker()
        item = {"call": "lct_braid", "args": {"g": 4}}
        good = {"lct": "1/2", "minimizers": [[3, 6, [0, 1, 2, 3, 4, 5]]]}
        self.assertIsNone(checker.check(item, good))
        self.assertIsNotNone(checker.check(item, dict(good, lct="2/5")))
        fat = {"call": "df_with_escalation", "args": {"divisors": [{"p": 7}], "s": "1"}, "fat_point": 7}
        # kstab's accepted fit at base 3 for m = 7, which misses DF0 = 48/7
        w = oracles.FlagWeights([{"p": 7}], 1)
        grid = [[k, str(w.weight(k))] for k in (6, 9, 12, 15, 18, 24)]
        c0, c1, c2 = oracles.quadratic_through([(k, F(v)) for k, v in grid[-3:]])
        out = {"base": 3, "grid": grid, "w_poly": [str(c0), str(c1), str(c2)],
               "DF0": str(4 * (c2 - 2 * c1))}
        self.assertEqual(F(out["DF0"]), F(46, 9))
        self.assertIsNotNone(checker.check(fat, out))

    def test_inputs_depend_only_on_the_seed(self):
        for name in ("lattice", "summation"):
            make = workloads.WORKLOADS[name]
            self.assertEqual(make(3), make(3))
            self.assertNotEqual(make(3), make(4))
            self.assertGreaterEqual(len(make(3)), 100)


if __name__ == "__main__":
    unittest.main()
