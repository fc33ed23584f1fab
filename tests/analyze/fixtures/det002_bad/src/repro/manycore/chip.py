# repro-lint: skip-file
"""DET002 fixture (bad): serial view keeping epoch state of its own."""


class ManyCoreChip:
    def step(self, levels, power, dt):  # BAD (mutates beyond the handle)
        obs = self._kernel.step(levels)
        self._accumulate(power, dt)
        profiler = self.profiler
        profiler.add("sensor", 0.0)  # alias mutator call: must NOT count
        return obs

    def _accumulate(self, power, dt):
        # Reached transitively from step(); hiding a store in a helper, or
        # writing through a reshaped alias, must not hide it from the
        # view-thinness check.
        totals = self.total_energy.reshape(-1)
        totals[0] += float(sum(power)) * dt

    def reset(self):  # BAD (draws from an RNG)
        self._kernel.reset(self._rng.normal())
