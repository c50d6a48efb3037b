"""Workload table of the seqdec benchmark.

Each workload is an experiment config in the harness's own format (the
keyword arguments of ``seqdec.harness.ExperimentConfig``), the SNR grid
of its bound curve (finer than the simulated points, as in the paper's
figures), the number of chunks each simulated point's trials are split
into (``bench/measure.py`` interleaves the chunks with slices of the
bound grid), a number of fresh-interpreter set-up samples, and a small gate
config that runs at the pinned seed and is compared with the committed
reference in ``bench/reference``.  The two ``selftest-*`` workloads are
tiny versions of the pipeline used by ``bench/selftest.py``; they are not
part of BENCHMARK.json.
"""

PINNED_SEED = 1

QR48 = {"name": "qr48"}
CONV_M6 = {"type": "conv", "name": "conv-634-564", "m": 6, "octal": ["634", "564"]}
# fig7 taps (see src/seqdec/configs/fig7.json for how they were read)
CONV_M16 = {"type": "conv", "name": "conv-m16", "m": 16,
            "taps": ["11100110100001001", "10011001011110111"]}
CONV_M2 = {"type": "conv", "name": "conv-6-5-7", "m": 2, "octal": ["6", "5", "7"]}
GOLAY = {"name": "golay24"}


def grid(start: float, stop: float, step: float) -> tuple:
    """Inclusive SNR grid in dB, rounded like the CLI's start:stop:step."""
    count = round((stop - start) / step)
    return tuple(round(start + i * step, 10) for i in range(count + 1))


WORKLOADS = {
    # Tree search dominates and per-trial work is heavy-tailed.  The
    # point sits at 4.5 dB, not at 2-4 dB: at 2 dB about 1 trial in 300
    # runs into the 10^6-extension limit (about 3 s each), and below
    # 4.5 dB no trial count that fits one run keeps the run's total work
    # within a few percent from seed to seed.
    "qr48-lowsnr": {
        "experiment": dict(code=QR48, snr_db=(4.5,), trials=16000, variant="both",
                           mode="both", workers=1, extension_limit=1_000_000),
        "bound_snr_db": grid(2.0, 4.5, 0.05),
        "chunks": 8,
        "setup_samples": 5,
        # a low point with a small limit exercises overflow counting cheaply
        "gate": dict(code=QR48, snr_db=(2.0, 4.5), trials=100, variant="both",
                     mode="both", workers=1, extension_limit=20_000),
    },
    # Searches sit near their floor, so the fixed per-trial cost
    # dominates; one process pool per SNR point exercises the harness.
    "conv-m6-highsnr": {
        "experiment": dict(code=CONV_M6, L=100,
                           snr_db=(5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0),
                           trials=1500, variant="both", mode="both", workers=2),
        "bound_snr_db": grid(5.0, 11.0, 0.125),
        # about 10 ms each, so more samples than elsewhere
        "setup_samples": 9,
        "gate": dict(code=CONV_M6, L=100, snr_db=(5.0, 8.0, 11.0), trials=100,
                     variant="both", mode="both", workers=2),
    },
    # Trellis build, d* and the per-state bound loop over 65,536 states
    # per level do nearly all the work.  The 3,000 trials at a high SNR
    # (searches at their floor) exist so that every end-to-end metric is
    # measured here too; they take about a quarter of the run.  Two bound
    # points, one per round, so that bound_s_per_point averages over a
    # longer window.  Each set-up takes about 10 s, so only two samples.
    "conv-m16-bound": {
        "experiment": dict(code=CONV_M16, L=100, snr_db=(8.0,), trials=3000,
                           variant="both", mode="both", workers=1),
        "bound_snr_db": (4.0, 8.0),
        "chunks": 2,
        "setup_samples": 2,
        "gate": dict(code=CONV_M16, L=100, snr_db=(8.0,), trials=20,
                     variant="both", mode="simulate", workers=1),
    },
    "selftest-conv": {
        "experiment": dict(code=CONV_M2, L=8, snr_db=(1.0, 3.0), trials=200,
                           variant="both", mode="both", workers=2),
        "bound_snr_db": (1.0, 2.0, 3.0),
        "setup_samples": 3,
        "gate": dict(code=CONV_M2, L=8, snr_db=(1.0, 3.0), trials=50,
                     variant="both", mode="both", workers=2),
    },
    "selftest-golay": {
        "experiment": dict(code=GOLAY, snr_db=(2.0,), trials=300, variant="both",
                           mode="both", workers=1, extension_limit=1_000_000),
        "bound_snr_db": (1.0, 2.0),
        "setup_samples": 3,
        "gate": dict(code=GOLAY, snr_db=(0.0,), trials=50, variant="both",
                     mode="both", workers=1, extension_limit=300),
    },
}
