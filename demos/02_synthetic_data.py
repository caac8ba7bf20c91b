"""
A two-domain interaction log from latent interests
==================================================

The synthetic generator plants shared interest clusters across both item
domains, so a user's history in one domain genuinely predicts their next
item in the other. This script builds a small log, walks it through
filtering and the leave-one-out split, and shows the augmentation ops
used for contrastive views.
"""

import numpy as np

from crossdiff.data import (AugmentationSpec, SyntheticConfig, augment,
                            filter_and_split_with_stats, generate_synthetic)

# ----------------------------------------------------------------------
# Generate: 30 users, two 40-item domains, a pinch of noise
# ----------------------------------------------------------------------

cfg = SyntheticConfig(n_users=30, n_items_x=40, n_items_y=40,
                      n_shared_interests=3, n_specific_interests=1,
                      noise_rate=0.1, rng_seed=4)
events, truth = generate_synthetic(cfg)
print("generated %d events for %d users" % (len(events), cfg.n_users))

u0 = events[0].user_id
hist = [(e.item_id, e.domain) for e in events if e.user_id == u0]
print("\n%s's history (item, domain):" % u0)
print("  " + " ".join("%s/%s" % h for h in hist))
print("latent shared interest of %s: cluster %d"
      % (u0, truth.shared_interest[u0]))

# ----------------------------------------------------------------------
# Filter + split: thresholds on the full history, then leave-one-out
# ----------------------------------------------------------------------

split, stats = filter_and_split_with_stats(events)
print("\nsurvival: %d/%d users kept (%d dropped short, %d dropped one-sided)"
      % (stats["n_users_kept"], stats["n_users_total"],
         stats["dropped_by_total_threshold"],
         stats["dropped_by_domain_threshold"]))
print("vocab: %d domain-x items, %d domain-y items (plus 2 reserved rows each)"
      % (split.vocab_x.n_items, split.vocab_y.n_items))
seq = split.train[0]
vtgt = split.validation[0][1]
ttgt = split.test[0][1]
print("user %s: train %d events, valid target %s, test target %s"
      % (split.user_ids[0], len(seq), vtgt, ttgt))

# ----------------------------------------------------------------------
# Augmentation: five ops produce alternate views of the same user for
# the contrastive objective. Same seed, same view.
# ----------------------------------------------------------------------

print("\naugmented views of a %d-event sequence" % len(seq))
print("  original  : %s" % seq.indices)
for op in ("crop", "mask", "reorder", "substitute", "insert"):
    aug = augment(seq, AugmentationSpec(op, 0.3, rng_seed=11),
                  split.vocab_x, split.vocab_y, max_seq_len=15)
    print("  %-10s: %s" % (op, aug.indices))
print("(mask writes the reserved row of the item's own domain; insert may")
print(" push the oldest events out once the length cap is hit)")
