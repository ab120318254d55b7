"""Self-tests of the benchmark: generators, oracles, tracer and calibration.

Usage, from the root of the repository:
    python3 perfbench/selftest.py
"""
from __future__ import annotations

import copy
import itertools
import os
import random
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402


def continuous_maps(src, tgt):
    """Brute force: every map src -> tgt that preserves closure."""
    return [f for f in itertools.product(range(len(tgt)), repeat=len(src))
            if all(f[y] in tgt[f[x]] for x in range(len(src)) for y in src[x])]


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_and_classes(self):
        for workload in gen.POOLS:
            a = gen.make_pool(workload, 11)
            b = gen.make_pool(workload, 11)
            c = gen.make_pool(workload, 12)
            self.assertEqual([i["files"] for i in a], [i["files"] for i in b])
            self.assertNotEqual([i["files"] for i in a],
                                [i["files"] for i in c])
            self.assertEqual([i["cls"] for i in a], [i["cls"] for i in c])

    def test_homomorphism_count_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(30):
            a = gen.closure_relation(rng, 4, 0.4)
            b = gen.closure_relation(rng, 4, 0.5)
            self.assertEqual(len(gen.homomorphisms(dict(enumerate(a)), b)),
                             len(continuous_maps(a, b)))


def _op(item, op_id=0, variant=None, group=0):
    return {"id": op_id, "item": item, "variant": variant, "group": group,
            "argv": None}


def _shift_first_finite(pairs):
    pairs = copy.deepcopy(pairs)
    for bar in pairs:
        if bar[1] is not None:
            bar[1] += 1.0
            return pairs
    pairs.append([0.0, 1.0])
    return pairs


class Oracles(unittest.TestCase):
    def test_persist_flags_a_shifted_bar(self):
        for item in gen.make_pool("persist-metric", 3)[::10]:
            op = _op(item)
            right = {"0": oracles.degree0_pairs(item),
                     "1": oracles.degree1_pairs(item)}
            self.assertEqual(oracles.check_persist([op], {0: right}), set())
            for degree in ("0", "1"):
                shifted = _shift_first_finite(right[degree])
                wrong = dict(right, **{degree: shifted})
                self.assertEqual(oracles.check_persist([op], {0: wrong}), {0})

    def test_persist_oracle_agrees_with_the_tower_route(self):
        from closuretop import filtrations as flt
        from closuretop import persistence as P
        from workloads import diagram_answer
        for item in gen.make_pool("persist-metric", 4)[::10]:
            if item["kind"] == "digraph":
                F = flt.filtered_from_weighted_digraph(
                    flt.digraph_from_text(item["files"]["g.txt"]))
            else:
                F = flt.filtered_from_metric(
                    flt.metric_from_csv(item["files"]["m.csv"]))
            route = "complex-cech" if item["kind"] == "cech" else "complex-vr"
            for degree, own in ((0, oracles.degree0_pairs),
                                (1, oracles.degree1_pairs)):
                tower = P.tower_to_diagram(P.persistence_tower(F, route, degree))
                self.assertEqual(own(item), diagram_answer(tower), item["cls"])

    def test_homology_flags_a_dropped_torsion_factor(self):
        item = {"power": None}
        ops = [_op(item, 0, "z"), _op(item, 1, "f2")]
        z = {"0": [1, []], "1": [0, [2]], "2": [0, []]}
        f2 = {"0": [1, []], "1": [1, []], "2": [1, []]}
        self.assertEqual(oracles.check_homology(ops, {0: z, 1: f2}), set())
        dropped = dict(z, **{"1": [0, []]})
        self.assertEqual(oracles.check_homology(ops, {0: dropped, 1: f2}),
                         {0, 1})

    def test_homology_flags_nonzero_reduced_homology_of_a_power(self):
        item = {"power": 1}
        ops = [_op(item, 0, "z"), _op(item, 1, "f2")]
        zero = {"0": [0, []], "1": [0, []], "2": [0, []]}
        self.assertEqual(oracles.check_homology(ops, {0: zero, 1: zero}),
                         set())
        one = dict(zero, **{"0": [1, []]})
        self.assertEqual(oracles.check_homology(ops, {0: one, 1: one}),
                         {0, 1})

    def test_tower_flags_a_shifted_bar_and_an_unstable_distance(self):
        pool = gen.make_pool("tower-sublevel", 3)
        # a short tower over f2, and a long-grid one over q, where only
        # degree 0 is compared with the reduction route
        items = [next(i for i in pool if i["theory"] == "simplicial-j1"
                      and i["coeffs"] == "f2"),
                 next(i for i in pool if i["cls"].startswith("long-grid"))]
        self.assertGreaterEqual(len(set(items[1]["f"])), 12)
        for item in items:
            right = {"f": oracles.reduction_pairs(item, "f"),
                     "g": oracles.reduction_pairs(item, "g"),
                     "bottleneck": [0.0, 0.0]}
            op = _op(item)
            self.assertEqual(oracles.check_tower([op], {0: right}), set())
            shifted = dict(right, f=[_shift_first_finite(right["f"][0]),
                                     right["f"][1]])
            self.assertEqual(oracles.check_tower([op], {0: shifted}), {0})
            sup = max(abs(a - b) for a, b in zip(item["f"], item["g"]))
            far = dict(right, bottleneck=[sup + 1.0, 0.0])
            self.assertEqual(oracles.check_tower([op], {0: far}), {0})

    def test_homotopy_flags_a_broken_witness_and_split_verdicts(self):
        src = [{0, 1}, {1}]
        tgt = [{0, 1}, {1}, {2}]
        f, g = (0, 1), (1, 1)
        item = {"src": src, "tgt": tgt, "f": f, "g": g, "product": "x",
                "interval": "jplus"}

        def stages(*maps):
            return [{f"x{i}": f"y{v}" for i, v in enumerate(h)}
                    for h in maps]

        ok = {"homotopic": True, "stages": stages(f, g)}
        self.assertTrue(oracles.witness_ok(item, ok["stages"]))
        self.assertEqual(oracles.check_homotopy([_op(item)], {0: ok}), set())
        # (2, 2) is continuous but joined to neither map by a homotopy
        detour = {"homotopic": True, "stages": stages(f, (2, 2), g)}
        self.assertEqual(oracles.check_homotopy([_op(item)], {0: detour}),
                         {0})
        ops = [_op(dict(item, interval="jplus"), 0),
               _op(dict(item, interval="leq:2"), 1)]
        split = {0: ok, 1: {"homotopic": False, "stages": []}}
        self.assertEqual(oracles.check_homotopy(ops, split), {0, 1})


class FakeClock:
    """Time moves only when the synthetic work says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, dt):
        self.t += dt
        return 1


class TracerSelfTimes(unittest.TestCase):
    def _nested(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        leaf = tr.wrap(lambda: clock.work(3.0), "leaf", "b")

        def middle_fn():
            clock.work(5.0)
            return leaf() + leaf()

        middle = tr.wrap(middle_fn, "middle", "a")
        root = tr.wrap(lambda: clock.work(7.0) + middle() + leaf(), "op", "op")
        tr.op = 0
        root()
        return tr, {s[0]: s for s in tr.spans}

    def test_self_times_add_up_to_the_op_time(self):
        tr, by_name = self._nested()
        op = by_name["op"]
        self.assertEqual(op[3] - op[2], 7.0 + 5.0 + 3 * 3.0)
        self.assertEqual(sum(s[6] for s in tr.spans), op[3] - op[2])
        self.assertEqual((by_name["op"][6], by_name["middle"][6],
                          by_name["leaf"][6]), (7.0, 5.0, 3.0))

    def test_counting_time_is_charged_to_no_span(self):
        fake = FakeClock()
        tr = Tracer(clock=fake)

        def counter(a, kw, result):
            fake.work(0.5)
            return {"calls": 1}

        leaf = tr.wrap(lambda: fake.work(3.0), "leaf", "b", counter)
        root = tr.wrap(lambda: leaf() + leaf(), "op", "op")
        tr.op = 0
        root()
        op = next(s for s in tr.spans if s[0] == "op")
        self.assertEqual(tr.counts, {"calls": 2})
        self.assertEqual(op[3] - op[2], 7.0)
        self.assertEqual(sorted(s[6] for s in tr.spans), [0.0, 3.0, 3.0])

    def test_a_call_that_raises_still_closes_its_span(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)

        def boom():
            clock.work(2.0)
            raise ValueError("planted")

        leaf = tr.wrap(boom, "leaf", "b", lambda a, kw, r: {"calls": 1})

        def body():
            with self.assertRaises(ValueError):
                leaf()
            return clock.work(1.0)

        tr.wrap(body, "op", "op")()
        by_name = {s[0]: s for s in tr.spans}
        self.assertEqual((by_name["op"][6], by_name["leaf"][6]), (1.0, 2.0))
        self.assertEqual(tr.counts, {})

    def test_missing_names_are_recorded_as_absent(self):
        mod = types.ModuleType("perfbench_fake_module")
        mod.present = lambda: 1
        sys.modules[mod.__name__] = mod
        patches = [(mod.__name__, "present", "a", None),
                   (mod.__name__, "removed", "a", None),
                   ("perfbench_no_such_module", "f", "a", None)]
        try:
            tr = Tracer()
            tr.install(patches)
            mod.present()
            tr.uninstall()
            mod.present()
            tr.install(patches)
            tr.uninstall()
            self.assertEqual(len(tr.spans), 1)
            self.assertEqual(tr.absent, [f"{mod.__name__}.removed",
                                         "perfbench_no_such_module.f"])
        finally:
            del sys.modules[mod.__name__]


class Calibration(unittest.TestCase):
    def test_a_slow_phase_of_the_machine_drops_out(self):
        import calibrate
        import worker
        # two ops costing 2 and 5 references, run through phases in which
        # the machine is 1x, 1.6x and 1.2x slower than the reference speed
        samples = []
        for slow in [1.0] * 10 + [1.6] * 10 + [1.2] * 10:
            ref = calibrate.REF_S * slow
            for op_id, cost in ((0, 2.0), (1, 5.0)):
                samples.append((op_id, cost * ref, 0, "", ref))
        latency = worker.calibrated_latencies(samples)
        self.assertAlmostEqual(latency[0], 2.0 * calibrate.REF_S)
        self.assertAlmostEqual(latency[1], 5.0 * calibrate.REF_S)


if __name__ == "__main__":
    unittest.main()
