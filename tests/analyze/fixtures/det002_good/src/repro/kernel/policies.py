# repro-lint: skip-file
"""DET002 fixture (good): batched learner with matching draws/state."""


class BatchODRL:
    def _act(self, r, states):
        rng = self._rngs[r]
        eps = self.epsilons[r]
        jitter = rng.random(states.shape)
        explore = rng.random(3) < eps
        alt = rng.integers(4, size=3)
        return alt if explore.any() else jitter

    def _update(self, r, states, actions, rewards, next_states):
        q = self.q[r]
        q[...] += 0.1
        # a flat view is still the table: writing through it mutates visits
        visits = self.visits.reshape(-1)
        visits[...] += 1
        self.step_counts[r] += 1

    def step(self, levels, power, instructions, temperature):
        self.allocation = self.allocation + 0.0
        return levels

    def reset(self):
        self.q = None
