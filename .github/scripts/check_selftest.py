"""Check a ``hyperspec selftest --format json`` report against its schema.

    python .github/scripts/check_selftest.py selftest.json

Every case has exactly its five keys, ``ok`` agrees with ``err <= tol``,
every case passed, and the closed-forms case's bracket rows are present.
"""

import json
import sys

report = json.load(open(sys.argv[1]))
cases = report["cases"]
assert all(set(case) == {"name", "err", "tol", "ok", "accuracy"} for case in cases)
assert all(case["ok"] == (case["err"] is not None and case["err"] <= case["tol"])
           for case in cases)
assert report["passed"] == report["total"] == len(cases) > 0
assert any(case["name"].startswith("bracket ") for case in cases)
