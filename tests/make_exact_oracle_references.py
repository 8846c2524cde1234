"""Write ``tests/data/exact_oracle_dim3.json``: the adaptive-quadrature
reference of every dimension-3 case of ``test_exact_oracle`` (each matrix,
df and limits of ``CASES_3`` and ``LIMITS_3``), with quad's own error
estimate of its outer integral.

    PYTHONPATH=src python tests/make_exact_oracle_references.py

Run it after changing ``reference``, ``MATRICES_3``, ``LIMITS_3`` or
``CASES_3``; ``test_stored_references_match_their_script`` recomputes a few
entries and fails if the file has drifted from this script.  Takes about
half a minute.
"""

import json
import sys
from pathlib import Path

import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_exact_oracle as oracle  # noqa: E402


def main():
    references = {}
    for name, df in oracle.CASES_3:
        for limits, (lower, upper) in oracle.LIMITS_3.items():
            value, err = oracle.reference(oracle.MATRICES_3[name], lower, upper, df, error=True)
            references[oracle.reference_key(name, df, limits)] = {
                "value": value,
                "quad_error": err,
            }
    record = {
        "about": "test_exact_oracle.reference of every dimension-3 case: "
        "value and the outer scipy.integrate.quad error estimate; written by "
        "tests/make_exact_oracle_references.py",
        "scipy": scipy.__version__,
        "references": references,
    }
    text = json.dumps(record, indent=1) + "\n"
    oracle.REFERENCES_3.parent.mkdir(exist_ok=True)
    oracle.REFERENCES_3.write_text(text, encoding="utf-8")
    print(f"wrote {len(references)} references to {oracle.REFERENCES_3}")


if __name__ == "__main__":
    main()
