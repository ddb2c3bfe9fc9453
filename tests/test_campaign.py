"""Two seeded campaigns, a mild and a wide one: run, verify and sweep on
each config, in process.

Each draw is made once, from a fixed seed, log-uniformly around the README
defaults on l = 0.1 m, with J = 3..122, 10..200 steps and T_b in
{0, 15, 1e3}.  The mild draw takes rho and c within 10^+-1, k, tau_q and
mu2 within 10^+-2 and dt in [1e-3, 1] s.  The wide draw takes each of rho,
c, k, tau_q and mu2 within 10^+-d, d drawn from [6, 8] for each, or
d = 100 with probability 0.2, and dt in [1e-3, 30] s.  Every command must
exit with a documented code, without a traceback or a warning, and run
must exit 0.  verify's non-zero exits are counted by cause against
VERIFY_EXITS, and sweep's against SWEEP_EXITS (WIDE_ for the wide draw).
The pins work like test_mutations.SURVIVORS: a change that adds a false
result fails the test, and one that mends a false result must lower its
pin.  The draws are pinned too: neither is ever re-seeded or resized to
hide a result.
"""

import contextlib
import hashlib
import io
import warnings
from collections import Counter

import numpy as np
import pytest

from gkheat.cli import main

SEED = 20260
COUNT = 40
WIDE_SEED = 777
WIDE_COUNT = 150


def draw_configs(seed: int = SEED, count: int = COUNT, wide: bool = False) -> list[str]:
    """The config texts of the mild draw, or of the wide one, one per draw."""
    rng = np.random.default_rng(seed)

    def around(default, decades):
        if wide:
            decades = 100.0 if rng.random() < 0.2 else rng.uniform(6.0, 8.0)
        return default * 10.0 ** rng.uniform(-decades, decades)

    texts = []
    for _ in range(count):
        J = int(rng.integers(3, 123))
        dt = 10.0 ** rng.uniform(-3.0, np.log10(30.0) if wide else 0.0)
        values = {"rho": around(2e3, 1), "c": around(5e2, 1), "k": around(2e3, 2),
                  "tau_q": around(8e-3, 2), "mu2": around(2.8e-3, 2),
                  "dx": 0.1 / (J + 1), "dt": dt,
                  "t_final": int(rng.integers(10, 201)) * dt,
                  "T_b": float(rng.choice([0.0, 15.0, 1e3]))}
        texts.append("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    return texts


#: sha256 of each draw's config texts, joined
DRAW_SHA256 = "26f3d1d272ed9b99948c08e392535096ffb2c98a5e3161c497b823b9f839ca3e"
WIDE_DRAW_SHA256 = "17e3dda361b00198f97dcff409bd3375f80814a996a9a13d575351d1248b2d15"

#: verify's non-zero exits over the draw, by cause: exit 3 by the checks
#: that FAIL, in verify's order, exit 1 and 2 by their message.  Of the 40,
#: 40 exit 0.
VERIFY_EXITS = Counter()
#: sweep's non-zero exits, the same way: it reads its columns from the
#: step matrices, so no horizon is too short for its rate
SWEEP_EXITS = Counter()
#: the same over the wide draw.  Of the 150, verify FAILs mode_rate_fit on
#: draw 6 alone, at J = 5, where the semi-discrete rate of mode 1 is 2.26%
#: from the continuum one: the mesh's own error, which no step resolves
WIDE_VERIFY_EXITS = Counter({"FAIL mode_rate_fit": 1})
WIDE_SWEEP_EXITS = Counter()


def command(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with stdout and stderr captured and every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cause(code: int, out: str, err: str) -> str:
    if code == 3:
        return "FAIL " + ", ".join(line.split(":")[0].removeprefix("FAIL ")
                                   for line in out.splitlines() if line.startswith("FAIL "))
    return f"exit {code}: {err.strip()}"


def run_draw(tmp_path_factory, configs: list[str],
             label: str) -> list[dict[str, tuple[int, str, str]]]:
    """The three commands' (code, stdout, stderr) on each config, by name."""
    results = []
    for i, text in enumerate(configs):
        work = tmp_path_factory.mktemp(f"{label}{i}")
        config = work / "draw.cfg"
        config.write_text(text + f"out_dir = {work / 'out'}\n", encoding="utf-8")
        results.append({name: command([name, "-c", str(config)])
                        for name in ("run", "verify", "sweep")})
    return results


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory) -> list[dict[str, tuple[int, str, str]]]:
    return run_draw(tmp_path_factory, draw_configs(), "draw")


@pytest.fixture(scope="module")
def wide_outcomes(tmp_path_factory) -> list[dict[str, tuple[int, str, str]]]:
    return run_draw(tmp_path_factory, draw_configs(WIDE_SEED, WIDE_COUNT, wide=True), "wide")


def documented_exits(outcomes: list[dict[str, tuple[int, str, str]]]) -> None:
    for i, outcome in enumerate(outcomes):
        for name, (code, out, err) in outcome.items():
            assert code in ((0, 1, 2, 3) if name == "verify" else (0, 1, 2)), (i, name, err)
            assert "Traceback" not in out + err, (i, name)
        assert outcome["run"][0] == 0, (i, outcome["run"][2])


def non_zero_exits(outcomes: list[dict[str, tuple[int, str, str]]], name: str) -> Counter:
    return Counter(cause(*outcome[name]) for outcome in outcomes if outcome[name][0] != 0)


def test_the_draw_is_pinned():
    configs = draw_configs()
    assert len(configs) == COUNT == len(set(configs))
    assert hashlib.sha256("".join(configs).encode()).hexdigest() == DRAW_SHA256


def test_the_wide_draw_is_pinned():
    configs = draw_configs(WIDE_SEED, WIDE_COUNT, wide=True)
    assert len(configs) == WIDE_COUNT == len(set(configs))
    assert hashlib.sha256("".join(configs).encode()).hexdigest() == WIDE_DRAW_SHA256


def test_every_command_exits_with_a_documented_code(outcomes):
    documented_exits(outcomes)


def test_every_wide_command_exits_with_a_documented_code(wide_outcomes):
    documented_exits(wide_outcomes)


@pytest.mark.parametrize("name,pins", [("verify", VERIFY_EXITS), ("sweep", SWEEP_EXITS)])
def test_non_zero_exits_match_the_pins(outcomes, name, pins):
    assert non_zero_exits(outcomes, name) == pins


@pytest.mark.parametrize("name,pins", [("verify", WIDE_VERIFY_EXITS),
                                       ("sweep", WIDE_SWEEP_EXITS)])
def test_wide_non_zero_exits_match_the_pins(wide_outcomes, name, pins):
    assert non_zero_exits(wide_outcomes, name) == pins
