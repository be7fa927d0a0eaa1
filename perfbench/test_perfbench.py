"""Self-tests of the repository benchmark.

    python3 -m unittest perfbench/test_perfbench.py

Slow (about five minutes on a 4-core machine): it builds the benchmark if
needed, runs every workload once untraced and twice traced, and builds the
driver unoptimized once to see it refuse to run.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "ratio")


def bench(workload, trace, cwd=ROOT, check=True):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=1200)
    if check and out.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s"
                             % (out.returncode, out.stderr[-3000:]))
    return out


def parse(out):
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


def digests(lines):
    """key -> (digest, status) from the report's digest lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "digest":
            found[parts[1]] = (parts[2], parts[3])
    return found


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = {w: parse(bench(w, 0)) for w in WORKLOADS}
        cls.traced = {w: (parse(bench(w, 1)), parse(bench(w, 1)))
                      for w in WORKLOADS}

    def check_names(self, lines, result, specs):
        names = [m["name"] for m in specs]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(
                any(l.split()[:2] == ["metric", m["name"]] for l in lines),
                m["name"] + " is not printed")

    def test_every_benchmark_name_is_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, result = self.plain[w]
                self.check_names(lines, result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for m in SPEC["end_to_end"]:
                    value = result["metrics"][m["name"]]["value"]
                    self.assertGreater(value, 0, m["name"])
                lines, result = self.traced[w][0]
                self.check_names(lines, result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_traced_runs_repeat_counts_and_digests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (l1, r1), (l2, r2) = self.traced[w]
                for m in SPEC["per_layer"]:
                    if m["unit"] in EXACT_UNITS:
                        self.assertEqual(r1["metrics"][m["name"]],
                                         r2["metrics"][m["name"]], m["name"])
                d1, d2 = digests(l1), digests(l2)
                common = d1.keys() & d2.keys()
                self.assertTrue(common)
                for key in common:
                    self.assertEqual(d1[key], d2[key], key)
                    self.assertEqual(d1[key][1], "ok", key)

    def test_driver_refuses_an_unoptimized_build(self):
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
        bdir = os.path.join(target, "perfbench-Debug")
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Debug"],
                    ["cmake", "--build", bdir, "--target", "perfbench_driver",
                     "-j", str(os.cpu_count() or 1)]):
            subprocess.run(cmd, check=True, capture_output=True, timeout=1800)
        out = subprocess.run(
            [os.path.join(bdir, "perfbench_driver"), "--workload", "figures"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 3)
        self.assertEqual(out.stdout, "")
        self.assertIn("refusing to time an unoptimized build", out.stderr)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
            try:
                out = bench(WORKLOADS[1], 0, cwd=tmp, check=False)
            finally:
                if env_dir is not None:
                    os.environ["CARGO_TARGET_DIR"] = env_dir
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
