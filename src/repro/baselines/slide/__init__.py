"""SLIDE — LSH-based sampled-softmax CPU training (the paper's CPU baseline).

- :mod:`repro.baselines.slide.lsh` — SimHash LSH tables over output neurons.
- :mod:`repro.baselines.slide.sampler` — per-sample active-label selection.
- :mod:`repro.baselines.slide.trainer` — the per-sample Hogwild-style trainer.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "lsh": "SimHashLSH",
    "sampler": "ActiveLabelSampler",
    "trainer": "SlideTrainer",
})
