"""Start-up guard: which parts of scipy a process loads.

``import cotv`` and every family but lognormal and gamma need numpy alone;
those two load ``scipy.special`` on first use, and nothing loads
``scipy.stats``.  Each check runs in a fresh interpreter, because the
test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import cotv, cotv.cli
from cotv.config import parse_config
from cotv.cli import run_scenario

def loaded():
    return sorted(m for m in ("scipy.special", "scipy.stats") if m in sys.modules)

seen = {"import": loaded()}
for name, raw in json.loads(sys.argv[1]).items():
    run_scenario(parse_config(raw))
    seen[name] = loaded()
print(json.dumps(seen))
"""


def scenario(distribution, framework="eu"):
    raw = {"framework": framework, "distribution": distribution,
           "preference": {"family": "power", "params": {"exponent": 1.5}},
           "method": "both"}
    if framework == "dt":
        raw["preference"] = {"family": "affine", "params": {}}
        raw["weighting"] = {"family": "inverse_s", "params": {"gamma": 0.7},
                            "psi": 0.3}
    return raw


def loaded_after(scenarios):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(scenarios)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_numpy_only_families_load_no_scipy():
    seen = loaded_after({
        "exponential": scenario({"family": "exponential", "params": {"rate": 1.0}}),
        "uniform": scenario({"family": "uniform", "params": {"lo": 1.0, "hi": 3.0}}),
        "discrete": scenario({"family": "discrete", "outcomes": [1.0, 2.0, 4.0],
                              "probabilities": [0.2, 0.5, 0.3]}),
        "banded": scenario({"family": "discrete",
                            "dt": {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5,
                                   "psi": 0.3}}, framework="dt"),
    })
    assert seen == {name: [] for name in
                    ("import", "exponential", "uniform", "discrete", "banded")}


def test_lognormal_and_gamma_load_scipy_special_only():
    for family, params in (("lognormal", {"log_mean": 1.0, "log_sd": 0.5}),
                           ("gamma", {"shape": 2.0, "rate": 1.0})):
        seen = loaded_after({family: scenario({"family": family, "params": params})})
        assert seen == {"import": [], family: ["scipy.special"]}
