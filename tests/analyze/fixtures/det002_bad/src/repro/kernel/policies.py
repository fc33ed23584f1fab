# repro-lint: skip-file
"""DET002 fixture (bad): batched learner skipping a draw and a store."""


class BatchODRL:
    def _act(self, r, states):  # BAD (one random draw short of serial)
        rng = self._rngs[r]
        jitter = rng.random(states.shape)
        alt = rng.integers(4, size=3)
        return alt if jitter.any() else jitter

    def _update(self, r, states, actions, rewards, next_states):  # BAD  # BAD (missing + extra)
        # Alias-view and nested-subscript stores must still count.
        q = self.q[r]
        q[...] += 0.1
        self.step_counts[r] += 1
        self.debug_steps += 1

    def step(self, levels, power, instructions, temperature):
        self.allocation = self.allocation + 0.0
        return levels

    def reset(self):
        self.q = None
