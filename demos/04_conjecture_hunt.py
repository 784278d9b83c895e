"""
Hunting counterexamples to the sharper sign conjectures
=======================================================

Beyond the proved sign results there are stronger conjectured splits: h_G
itself (not z h_G) should decompose with the same signs, and likewise the
strict-series numerator of an order polytope.  The harness sweeps labeled
corpora and seeded random instances; a single failing input would be
reported with full witnesses and a nonzero exit from the CLI.
"""

from hstarlib import Summary, enumerate_labeled_graphs, random_instances, verify_all

# Exhaustive sweep: every labeled graph on 4 vertices, all graph checks.
summary = Summary()
for report in verify_all(enumerate_labeled_graphs(4)):
    summary.add(report)
print("exhaustive d = 4 graphs:", summary.line())

# Random sweep at a size exhaustive search cannot reach.  Same seed, same
# corpus, byte-for-byte reproducible reports.
summary = Summary()
corpus = random_instances("graph", 7, 25, seed=2024)
for report in verify_all(corpus, ["conj6.1", "conj6.4"]):
    summary.add(report)
    if report.failed:  # would be a publishable event
        print(report.to_record())
print("random d = 7 graphs:", summary.line())

# Prove the failure path actually fires: flip one coefficient sign per
# input and watch the reports turn red.
failures = sum(
    report.failed for report in verify_all(enumerate_labeled_graphs(3), ["conj6.1"], mutate=True)
)
print(f"mutation self-test: {failures} injected failures reported")
assert failures > 0
