# repro-lint: skip-file
"""DET002 fixture: the stacked decide the controller view delegates to."""


class BatchODRL:
    def step(self, levels, power, instructions, temperature):
        self.allocation = self.allocation + 0.0
        return levels

    def reset(self):
        self.learner.reset()
