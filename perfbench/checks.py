"""Per-report correctness checks, made from outside the package.

A report passes when its exit code and stdout hold up against facts the
benchmark computes itself: the Milnor-Orlik number of the reported
weights, the dimension of every degree p >= n, the crosscheck verdict,
the kernel verification flag, and, where one was recorded, the golden
digest of the exact output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Exit 1 is a completed report in mode structural when the message names
# one of these preconditions.
PRECONDITIONS = ("non-isolated singularity", "no valid elimination route")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def milnor_orlik(weights, degree) -> Fraction:
    """mu = prod(d / w_i - 1) for an isolated quasi-homogeneous f."""
    mu = Fraction(1)
    for w in weights:
        mu *= Fraction(degree, w) - 1
    return mu


def check_report(argv, code, stdout, stderr, golden=None):
    """None when the report passes, else a one-line reason."""
    reason = _check_content(argv, code, stdout, stderr)
    if reason is None and golden is not None and \
            golden != [code, digest(stdout)]:
        reason = "output differs from the golden"
    return reason


def _check_content(argv, code, stdout, stderr):
    mode = argv[argv.index("--mode") + 1]
    if code == 1 and mode == "structural" and \
            any(p in stderr for p in PRECONDITIONS):
        return None
    if code != 0:
        return "exit %s: %s" % (code, " ".join(stderr.split())[:160])
    report = json.loads(stdout)
    if mode == "both" and report["crosscheck"] != "agree":
        return "crosscheck %s" % report["crosscheck"]
    mu = milnor_orlik(report["weights"], report["degree"])
    if report["milnor"] != mu:
        return "milnor %s, Milnor-Orlik gives %s" % (report["milnor"], mu)
    n = len(report["weights"])
    for degree in report[argv[0]]:
        if degree["p"] < n:
            continue
        total = sum(dim for _, dim in degree["graded_dims"])
        if total != mu:
            return "degree %d has total dimension %d, mu is %s" % (
                degree["p"], total, mu)
    if report.get("kernel_verified") is False:
        return "kernel generators not verified"
    return None
