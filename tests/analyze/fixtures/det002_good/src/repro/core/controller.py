# repro-lint: skip-file
"""DET002 fixture (good): the controller as a one-row view of the learner."""


class ODRLController:
    def decide(self, obs):
        if obs is None:
            return self.stack.step(None, None, None, None)[0]
        return self.stack.step(obs.levels[None], obs.power[None], None, None)[0]

    def reset(self):
        self.stack.reset()
