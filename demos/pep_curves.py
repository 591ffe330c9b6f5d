"""Per-user pairwise error probability vs SNR.

Sweeps the three-user reference configuration (a = [0.7, 0.2, 0.1], BPSK)
over 0-40 dB for Laplacian (alpha = 1), Gaussian (alpha = 2) and a
heavy-tailed (alpha = 0.5) noise shape, printing the analytic PEP of each
user's reference error event (pep_exact) next to a 10^5-trial Monte Carlo
estimate; the MC column should land inside its own confidence interval
width of the analytic value.
"""

from noma_ggn import (
    GGNoiseModel,
    SystemConfig,
    canonical_event,
    estimate_pep_mc,
    pep_exact,
)

TRIALS = 100_000


def main():
    for alpha in (0.5, 1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        print(f"\nalpha = {alpha}")
        print(f"{'snr_db':>7} " + " ".join(f"{f'user {l}':>24}" for l in (1, 2, 3)))
        for snr_db in range(0, 45, 10):
            gamma_bar = 10.0 ** (snr_db / 10.0)
            cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)
            cells = []
            for l in (1, 2, 3):
                ev = canonical_event(cfg, l)
                analytic = pep_exact(ev, model).value
                mc = estimate_pep_mc(ev, cfg, model, trials=TRIALS, seed=1).point
                cells.append(f"{analytic:11.4e}/{mc:10.4e}")
            print(f"{snr_db:>7} " + " ".join(f"{c:>24}" for c in cells))
    print("\ncolumns: analytic / Monte Carlo point estimate")


if __name__ == "__main__":
    main()
