"""The two-round relation problem and its one-round sampling variant.

Round 1 swaps entanglement between two randomly chosen sites and reports
the Bell outcomes.  Their per-layer parities, the syndrome, name the Pauli
frame of the three end-to-end pairs; round 2 corrects that frame and plays
the game, which then succeeds on every instance.  Without the correction
round, the clean-frame branch alone (probability 1/64) must satisfy the
relation, and it does.  ``shallow.run_trials`` plays a
``quantum.StrategyStack`` of the dimension-8 strategy through both rounds
of every trial, trial t drawing from its own stream of the seed, and
returns each batch of trials as one ``shallow.Trials`` record of arrays, a
row per trial: its instance, its round 2 as a game round, and whether its
frame is clean.  A trial satisfies the relation exactly when its round is
won.
"""
from bcsmagic import StrategyStack, build_game_bcs, permutation_solution
from bcsmagic.shallow import run_trials

game = build_game_bcs(8, modified=True)
stack = StrategyStack(game.bcs, permutation_solution(game))
print("strategy verified:", stack.report.ok)

# One trial: a random instance on 12 sites, swapped, corrected and played.
[record] = run_trials(stack, 12, 404, 1)
print(f"instance: sites j={record.j[0]}, k={record.k[0]} of N={record.N[0]}, "
      f"constraint {record.alphas[0]}, variable {record.betas[0]}")
print("round-2 outcomes: Alice", record.outcomes[0, :record.widths[0]].tolist(),
      " Bob", record.outcomes[0, -1])
print("relation satisfied:", record.won[0])

# Many trials at once, measured in batches; each depends only on the seed
# and its own index.
trials = 3000
ok = sum(int(record.won.sum()) for record in run_trials(stack, 200, 404, trials))
print(f"\n{ok}/{trials} random corrected instances satisfy the relation")

sampling_trials = 20000
# A sampling trial is case 1 when clean and won, case 2 when not clean, and
# invalid when clean but lost.
cases = {"case1": 0, "case2": 0, "invalid": 0}
for record in run_trials(stack, 30, 405, sampling_trials, "sampling"):
    cases["case1"] += int((record.clean & record.won).sum())
    cases["case2"] += int((~record.clean).sum())
    cases["invalid"] += int((record.clean & ~record.won).sum())
print(f"\nsampling variant over {sampling_trials} trials: {cases}")
print(f"clean-frame rate {cases['case1'] / sampling_trials:.5f} vs 1/64 = {1 / 64:.5f}; "
      f"invalid trials: {cases['invalid']}")
