# repro-lint: skip-file
"""DET002 fixture (bad): a controller view keeping learner state of its own."""


class ODRLController:
    def decide(self, obs):  # BAD (counts epochs beside its stack)
        self._epoch += 1
        return self.stack.step(obs.levels[None], obs.power[None], None, None)[0]

    def reset(self):
        self.stack.reset()
