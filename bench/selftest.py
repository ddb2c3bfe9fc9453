"""Self-test of the benchmark on the shrunken "smoke" workload.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that deliberately corrupted outputs are counted as failures, and that the
benchmark refuses to run without the package sources.  Exits 1 if any
expectation fails, 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run

ROOT = run.ROOT
WORK = run.WORK_ROOT / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def metrics_printed(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", trace)
        if proc.returncode != 0:
            errors.append(f"--trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"--trace {trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 3):
            errors.append(f"--trace {trace}: smoke run not correct: {proc.stdout[-1500:]}")
        expected = {m["name"]: m["unit"] for m in spec[group]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != expected:
            errors.append(f"--trace {trace}: metrics differ from BENCHMARK.json {group}: "
                          f"missing {sorted(set(expected) - set(printed))}, "
                          f"extra {sorted(set(printed) - set(expected))}, units "
                          f"{[k for k in expected if printed.get(k, expected[k]) != expected[k]]}")
        for name in expected:
            value = result["metrics"].get(name, {}).get("value")
            if not isinstance(value, (int, float)):
                errors.append(f"--trace {trace}: {name} has no numeric value")
            elif group == "end_to_end" and not value > 0:
                errors.append(f"--trace {trace}: end-to-end metric {name} is {value}")


def corruption_detected(errors: list[str]) -> None:
    wl = run.Workload("smoke", 7)
    wl.prepare()
    b = run.Bench(wl)
    sample = b.command("run", "selftest-run", traced=False)
    if sample["problems"]:
        errors.append(f"clean run reported problems: {sample['problems']}")
        return
    WORK.mkdir(parents=True, exist_ok=True)
    args = (wl.J, wl.steps + 1, run.STRIDE)

    def corrupted(name: str, edit) -> list[str]:
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(wl.out, out)
        path = out / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return check.check_run(out, *args)

    def bump_heat(text: str) -> str:
        lines = text.splitlines()
        row = lines[len(lines) // 2].split(",")
        row[5] = repr(float(row[5]) * (1.0 + 1e-9))
        lines[len(lines) // 2] = ",".join(row)
        return "\n".join(lines) + "\n"

    def drop_field(text: str) -> str:
        lines = text.splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        return "\n".join(lines) + "\n"

    cases = {
        "trace.csv heat changed by 1e-9": corrupted("trace.csv", bump_heat),
        "trace.csv last row dropped": corrupted(
            "trace.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
        "trace.csv header renamed": corrupted("trace.csv", lambda t: t.replace("heat", "Heat", 1)),
        "profiles.csv row lost a field": corrupted("profiles.csv", drop_field),
        "profiles.csv last node dropped": corrupted(
            "profiles.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    }
    pass_lines = "".join(f"PASS {name}: ok\n" for name in check.VERIFY_CHECKS)
    cases["verify with one FAIL line"] = check.check_verify(
        pass_lines.replace("PASS heat_conservation", "FAIL heat_conservation"))
    cases["verify missing a check"] = check.check_verify(pass_lines.split("\n", 1)[1])

    sample = b.command("sweep", "selftest-sweep", traced=False)
    if sample["problems"]:
        errors.append(f"clean sweep reported problems: {sample['problems']}")
        return
    summary = wl.out / "summary.csv"
    lines = summary.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[2] = repr(float(row[2]) * 1.05)
    summary.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n",
                       encoding="utf-8")
    cases["summary.csv fitted rate off by 5%"] = check.check_sweep(
        wl.out, run.MATERIAL, wl.pairs)

    for what, problems in cases.items():
        if not problems:
            errors.append(f"corruption not detected: {what}")


def refuses_without_sources(errors: list[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "reference", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    errors: list[str] = []
    for test in (metrics_printed, corruption_detected, refuses_without_sources):
        before = len(errors)
        test(errors)
        print(f"{'ok  ' if len(errors) == before else 'FAIL'} {test.__name__}")
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
