"""Tests for servebench's own logic: request streams and statistics.

    python3 -m unittest discover -s servebench -p 'test_*.py'
"""

import collections
import json
import statistics
import unittest

import stats
import workloads


def key_fields(req):
    """The resolved semantic fields flopsim-serve hashes into a cache key
    (serve/service.cpp), with the service's defaults filled in."""
    if req["type"] == "plan":
        return ("plan", req["op"], req["bits"], req.get("stages", 0),
                req.get("objective", "area"), req.get("ieee", False),
                req.get("fabric", False), req.get("harden"))
    if req.get("kernel") == "matmul":
        return ("matmul", req.get("n", 4), req.get("bits", 32),
                req.get("faults", 24), req.get("seed", 0x5eed),
                req.get("scheme", "none"))
    return ("unit", req["op"], req.get("bits", 32), req.get("stages", 0),
            req.get("objective", "area"), req.get("ieee", False),
            req.get("fabric", False), req.get("scheme", "none"),
            req.get("vectors", 32), req.get("faults", 48),
            req.get("seed", 0x5eed))


def composition(reqs):
    """Class and design-point mix of a stream, blind to seeds and order."""
    mix = collections.Counter()
    for r in reqs:
        mix[(workloads.request_class(r), r.get("op"), r.get("bits"),
             r.get("scheme"), r.get("kernel"), r.get("faults"))] += 1
    return mix


class StreamTest(unittest.TestCase):
    SIZES = {"explore_cold": 900, "matmul_cold": 400}

    def stream(self, workload, seed):
        return workloads.requests(workload, seed, self.SIZES[workload])

    def test_same_seed_same_bytes(self):
        for wl in workloads.WORKLOADS:
            a = workloads.render(self.stream(wl, 7))
            b = workloads.render(self.stream(wl, 7))
            self.assertEqual(a, b, wl)
            self.assertTrue(a.endswith("\n"))

    def test_other_seed_keeps_composition(self):
        for wl in workloads.WORKLOADS:
            a, b = self.stream(wl, 1), self.stream(wl, 2)
            self.assertEqual(len(a), len(b), wl)
            self.assertEqual(composition(a), composition(b), wl)
            self.assertNotEqual(workloads.render(a), workloads.render(b), wl)

    def test_other_seed_disjoint_campaign_seeds_and_keys(self):
        for wl in workloads.WORKLOADS:
            a, b = self.stream(wl, 1), self.stream(wl, 2)

            def camp(reqs):
                return [r for r in reqs if r["type"] == "campaign"]
            seeds_a = {r["seed"] for r in camp(a)}
            seeds_b = {r["seed"] for r in camp(b)}
            self.assertEqual(len(seeds_a), len(camp(a)), wl)
            self.assertFalse(seeds_a & seeds_b, wl)
            keys_a = {key_fields(r) for r in camp(a)}
            keys_b = {key_fields(r) for r in camp(b)}
            self.assertFalse(keys_a & keys_b, wl)

    def test_every_key_unique_within_a_stream(self):
        # A cold stream must be all misses.
        for wl in workloads.WORKLOADS:
            reqs = self.stream(wl, 3)
            keys = [key_fields(r) for r in reqs]
            self.assertEqual(len(keys), len(set(keys)), wl)

    def test_explore_cold_mix(self):
        reqs = self.stream("explore_cold", 5)
        mix = collections.Counter(workloads.request_class(r) for r in reqs)
        self.assertEqual(mix["plan.sweep"], mix["plan.fixed"])
        self.assertEqual(mix["plan.sweep"] + mix["plan.fixed"], len(reqs) // 3)
        self.assertEqual(mix["campaign.unit"], 2 * len(reqs) // 3)
        for r in reqs:
            if r["type"] == "campaign":
                self.assertEqual(r["faults"], workloads.EXPLORE_FAULTS)
        # Every 3 rounds hold each (op, bits, scheme, objective) once.
        for start in (0, 270, 540):
            points = collections.Counter(
                (r["op"], r["bits"], r["scheme"], r["objective"])
                for r in reqs[start:start + 270] if r["type"] == "campaign")
            self.assertEqual(len(points), 5 * 3 * 6 * 2)
            self.assertEqual(set(points.values()), {1})

    def test_explore_cold_stream_is_bounded_by_its_plan_space(self):
        reqs = workloads.requests("explore_cold", 9, 10 ** 6)
        self.assertEqual(len(reqs), 48 * workloads.ROUND_SIZE["explore_cold"])

    def test_round_sizes(self):
        for wl in workloads.WORKLOADS:
            batch = next(workloads.ROUNDS[wl](0))
            self.assertEqual(len(batch), workloads.ROUND_SIZE[wl], wl)

    def test_ids_are_positions(self):
        reqs = self.stream("matmul_cold", 4)
        self.assertEqual([r["id"] for r in reqs], list(range(len(reqs))))
        for line in workloads.render(reqs).splitlines():
            self.assertIsInstance(json.loads(line), dict)


class StatsTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(xs, 0.0), 1)
        self.assertEqual(stats.percentile(xs, 0.5), 3)
        self.assertEqual(stats.percentile(xs, 1.0), 5)
        self.assertAlmostEqual(stats.percentile(xs, 0.125), 1.5)
        self.assertEqual(stats.percentile([2.0], 0.99), 2.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_median_matches_statistics(self):
        for xs in ([1, 2, 3, 4], [3, 1, 2], [0.5, 0.25, 8.0, 1.0, 9.5]):
            self.assertEqual(stats.percentile(xs, 0.5), statistics.median(xs))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        self.assertEqual(stats.samples_beyond(100, 0.5), 50)
        self.assertEqual(stats.min_samples_for(0.99), 1000)
        self.assertEqual(stats.min_samples_for(0.999), 10000)
        self.assertEqual(stats.min_samples_for(0.5), 20)

    def test_tail_percentile_needs_ten_beyond(self):
        xs = list(range(1000))
        self.assertAlmostEqual(stats.tail_percentile(xs, 0.99), 989.01)
        beyond = [x for x in xs if x > stats.tail_percentile(xs, 0.99)]
        self.assertEqual(len(beyond), 10)
        with self.assertRaises(ValueError):
            stats.tail_percentile(xs[:999], 0.99)

    def test_ratio(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(5, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
