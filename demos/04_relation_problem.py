"""The two-round relation problem and its one-round sampling variant.

Round 1 swaps entanglement between two randomly chosen sites and reports
the Bell outcomes.  Their per-layer parities, the syndrome, name the Pauli
frame of the three end-to-end pairs; round 2 corrects that frame and plays
the game, which then succeeds on every instance.  Without the correction
round, the clean-frame branch alone (probability 1/64) must satisfy the
relation, and it does.  ``shallow.run_trials`` runs both rounds of one trial
per generator it is given and returns round 2 as a game round: a trial
satisfies the relation exactly when that round is won.
"""
import itertools
from collections import Counter

from bcsmagic import build_game_bcs, make_rng, permutation_solution
from bcsmagic.shallow import run_trials

game = build_game_bcs(8, modified=True)
sol = permutation_solution(game)
rng = make_rng(404)

# One generator, one trial: a random instance on 12 sites, swapped,
# corrected and played.
[(inst, result, _)] = run_trials(game, sol, 12, [rng])
print(f"instance: sites j={inst.j}, k={inst.k} of N={inst.N}, "
      f"constraint {inst.alpha}, variable {inst.beta}")
print("round-2 outcomes: Alice", result.alice_outcomes, " Bob", result.bob_outcome)
print("relation satisfied:", result.won)

# Many trials at once: each draws from the generator as the single trial
# above did, and the batch is measured together.
trials = 3000
ok = sum(result.won for _, result, _ in run_trials(game, sol, 200, itertools.repeat(rng, trials)))
print(f"\n{ok}/{trials} random corrected instances satisfy the relation")

sampling_trials = 20000
# A sampling trial is case 1 when clean and won, case 2 when not clean, and
# invalid when clean but lost.
cases = Counter(
    ("case1" if result.won else "invalid") if clean else "case2"
    for _, result, clean in run_trials(
        game, sol, 30, itertools.repeat(rng, sampling_trials), "sampling"
    )
)
print(f"\nsampling variant over {sampling_trials} trials: {dict(cases)}")
print(f"clean-frame rate {cases['case1'] / sampling_trials:.5f} vs 1/64 = {1 / 64:.5f}; "
      f"invalid trials: {cases['invalid']}")
