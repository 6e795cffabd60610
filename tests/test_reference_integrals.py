"""Exact-route integrals against their 40-digit references.

``tests/reference_integrals.json`` holds E_w[t^k] of the ledger regions
a, a-slow, c, d, e, g and h, of the report-mix integrals that the adaptive
Gauss kernel left outside their budget, and of a gamma whose error
estimate that kernel missed, computed with mpmath over the full support
by ``tools/reference_integrals.py``.  This test reads only the JSON.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cotv.config import build_model, build_weighting

DOCUMENT = json.loads((Path(__file__).parent / "reference_integrals.json")
                      .read_text(encoding="utf-8"))
REFERENCES = DOCUMENT["integrals"]


def test_references_record_their_precision():
    assert DOCUMENT["digits"] >= 30 and DOCUMENT["mpmath"]
    assert len(REFERENCES) == len({item["id"] for item in REFERENCES})
    for item in REFERENCES:
        assert float(item["value"]) == item["float"]


@pytest.mark.parametrize("item", REFERENCES, ids=[item["id"] for item in REFERENCES])
def test_integral_within_1e_12_of_its_reference(item):
    model = build_model(item["model"])
    w = build_weighting(item["weighting"]) if item["weighting"] else None
    k = item["power"]
    value = model.distorted_expect(lambda t: np.asarray(t, dtype=float) ** k, w)
    assert abs(value - item["float"]) <= 1e-12 * abs(item["float"])
