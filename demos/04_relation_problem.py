"""The two-round relation problem and its one-round sampling variant.

Round 1 swaps entanglement between two randomly chosen sites and reports
the Bell outcomes.  Their per-layer parities, the syndrome, name the Pauli
frame of the three end-to-end pairs; round 2 corrects that frame and plays
the game, which then succeeds on every instance.  Without the correction
round, the clean-frame branch alone (probability 1/64) must satisfy the
relation, and it does.  ``shallow.run_trials`` runs both rounds of every
trial, trial t drawing from its own stream of the seed, and returns round 2
as a game round: a trial satisfies the relation exactly when that round is
won.
"""
from collections import Counter

from bcsmagic import build_game_bcs, permutation_solution
from bcsmagic.shallow import run_trials

game = build_game_bcs(8, modified=True)
sol = permutation_solution(game)

# One trial: a random instance on 12 sites, swapped, corrected and played.
[(inst, result, _)] = run_trials(game, sol, 12, 404, 1)
print(f"instance: sites j={inst.j}, k={inst.k} of N={inst.N}, "
      f"constraint {inst.alpha}, variable {inst.beta}")
print("round-2 outcomes: Alice", result.alice_outcomes, " Bob", result.bob_outcome)
print("relation satisfied:", result.won)

# Many trials at once, measured in batches; each depends only on the seed
# and its own index.
trials = 3000
ok = sum(result.won for _, result, _ in run_trials(game, sol, 200, 404, trials))
print(f"\n{ok}/{trials} random corrected instances satisfy the relation")

sampling_trials = 20000
# A sampling trial is case 1 when clean and won, case 2 when not clean, and
# invalid when clean but lost.
cases = Counter(
    ("case1" if result.won else "invalid") if clean else "case2"
    for _, result, clean in run_trials(game, sol, 30, 405, sampling_trials, "sampling")
)
print(f"\nsampling variant over {sampling_trials} trials: {dict(cases)}")
print(f"clean-frame rate {cases['case1'] / sampling_trials:.5f} vs 1/64 = {1 / 64:.5f}; "
      f"invalid trials: {cases['invalid']}")
