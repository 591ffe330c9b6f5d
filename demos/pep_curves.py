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
    grid = range(0, 45, 10)
    users = (1, 2, 3)
    for alpha in (0.5, 1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        events = [
            canonical_event(
                SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=10.0 ** (snr_db / 10.0), noise_alpha=alpha),
                l,
            )
            for snr_db in grid
            for l in users
        ]
        # one Monte Carlo call per alpha: every point shares each block's draws
        estimates = estimate_pep_mc(events, model, trials=TRIALS, seed=1)
        print(f"\nalpha = {alpha}")
        print(f"{'snr_db':>7} " + " ".join(f"{f'user {l}':>24}" for l in users))
        for i, snr_db in enumerate(grid):
            row = slice(i * len(users), (i + 1) * len(users))
            cells = [
                f"{pep_exact(ev, model).value:11.4e}/{mc.point:10.4e}"
                for ev, mc in zip(events[row], estimates[row])
            ]
            print(f"{snr_db:>7} " + " ".join(f"{c:>24}" for c in cells))
    print("\ncolumns: analytic / Monte Carlo point estimate")

if __name__ == "__main__":
    main()
