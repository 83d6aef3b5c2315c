"""The bundled motorcycle benchmark end to end.

Loads the three-level evaluation hierarchy (19 basic attributes, four
motorcycles), derives general-attribute reliabilities, evaluates all three
aggregation schemes bottom-up, and ranks the alternatives by expected
utility.
"""

from erkit import (
    decide, derive_reliabilities, evaluate, evaluate_batch, motorcycle_model, validate,
)

model = motorcycle_model()
print(f"alternatives : {', '.join(model.alternatives)}")
print(f"grades       : {', '.join(model.frame.grades)}")
leaves = [path for path, node in model.walk() if node.is_basic]
print(f"basic attrs  : {len(leaves)}")
print(f"diagnostics  : {validate(model) or 'none'}")

# Reliabilities of general attributes are the mean of their children's;
# the bundled file already carries them, so this is a consistency no-op.
model = derive_reliabilities(model, strict=True)
print(f"derived root reliability: {model.root.reliability:.4f}")

for algo in ("oer", "mer", "e2r"):
    batch = evaluate_batch(model, algo)  # every node, every alternative; the root row last
    result = decide(batch, model.utility)
    print(f"\n=== {algo} ===")
    for alt, assigned, unassigned in zip(
        model.alternatives, batch.assigned[-1].tolist(), batch.unassigned[-1].tolist()
    ):
        degrees = "  ".join(f"{d:.4f}" for d in assigned)
        print(f"  {alt:10s} [{degrees}]  unknown={unassigned:.4f}"
              f"  utility={result.utilities[alt]:.4f}")
    print("  ranking:", " > ".join(result.ranking))

# Intermediate attributes get results too; here the brakes subtree for
# Honda under the two-factor scheme.
results = evaluate(model, "e2r", "Honda")
for path in sorted(results):
    if "brakes" in path:
        c = results[path]
        print(f"\n{path}: unknown={c.unassigned:.4f}",
              {g: round(d, 4) for g, d in c.assigned_degrees.items() if d > 1e-9})
