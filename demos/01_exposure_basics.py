"""Ranks, exposures, and what the numbers mean.

A canary's exposure compares its loss against a pool of reference losses:
rank 1 (more probable than every reference) gives the maximum exposure
log2(n); a middling rank gives an exposure near 1.

Run: python demos/01_exposure_basics.py
"""

import numpy as np

from canaudit import AuditDataset, exposure_all, exposure_of, rank


def main():
    rng = np.random.default_rng(0)

    print("=== single canary against 1024 references ===")
    references = np.sort(rng.normal(size=1024))
    for loss, label in [
        (references[0] - 1.0, "below every reference"),
        (float(np.median(references)), "at the reference median"),
        (references[-1] + 1.0, "above every reference"),
    ]:
        r = rank(loss, references)
        e = exposure_of(loss, references)
        print(f"  loss {label:<24} rank {r:>5}  exposure {e:+.4f} bits")

    print()
    print("=== a small audit dataset ===")
    # Three canaries: one memorized (low loss), two unremarkable.
    d = AuditDataset(
        canary_losses=[-2.7, 0.1, 0.4],
        reference_losses=references,
        canary_ids=("memorized", "typical-a", "typical-b"),
    )

    report = exposure_all(d)
    for rec_id, loss, r, e, fpr in zip(d.canary_ids, d.canary_losses, report.ranks,
                                       report.exposures, (report.ranks - 1) / d.n):
        print(f"  {rec_id:<10} loss {loss:+.2f}  rank {r:>5}  "
              f"exposure {e:+.4f}  induced fpr {fpr:.4f}")
    print(f"  mean exposure   {report.mean_exposure:.4f}")
    print(f"  median exposure {report.quantile_exposures[0.5]:.4f}")
    print()
    print("Ties: references whose loss equals the canary's count against it,")
    print("as if they were smaller. Ties only raise ranks, so on rounded or")
    print("bf16 losses exposure and p-values never overstate memorization:")
    tied_refs = [1.0, 2.0, 2.0, 3.0]
    print(f"  refs {tied_refs}, loss 2.0 -> rank {rank(2.0, tied_refs)} "
          f"(1 + three references <= 2.0), exposure {exposure_of(2.0, tied_refs):+.4f}")


if __name__ == "__main__":
    main()
