"""BER union bound against full-chain simulated BER.

The bound sums bit-error-weighted pairwise error probabilities over every
(transmitted, detected) hypothesis pair, uniformly averaged over interferer
symbols and SIC-layer decisions. For user 1 with BPSK the bound coincides
with the true BER. On the 0.7/0.2/0.1 split this demo runs, the SIC users'
bound stays above the simulation and eventually floors, because the
uniform averaging keeps destructive SIC error patterns (whose pairwise
probability tends to 1) at fixed weight. It is not an upper bound on every
split: the README's paragraph on `union_bound` gives splits where it sits
below the simulated BER, e.g. a = (0.5, 0.25, 0.25), user 2, 40 dB.
"""

from noma_ggn import GGNoiseModel, SystemConfig, simulate_ber, union_bound

TRIALS = 200_000


def main():
    grid = range(10, 45, 10)
    for alpha in (1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        configs = [
            SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=10.0 ** (snr_db / 10.0), noise_alpha=alpha)
            for snr_db in grid
        ]
        # one simulation per alpha: every SNR point shares each block's draws
        per_config = simulate_ber(configs, model, trials=TRIALS, seed=1)
        print(f"\nalpha = {alpha}")
        print(f"{'snr_db':>7} " + " ".join(f"{f'user {l}':>23}" for l in (1, 2, 3)))
        for snr_db, cfg, sims in zip(grid, configs, per_config):
            cells = []
            for l, est in zip((1, 2, 3), sims):
                bound = union_bound(cfg, model, l).p_ub
                cells.append(f"{bound:10.4e}/{est.point:10.4e}")
            print(f"{snr_db:>7} " + " ".join(f"{c:>23}" for c in cells))
    print(
        "\ncolumns: union bound / simulated BER (on this split the bound does not sit"
        " below beyond Monte Carlo noise; the README names splits where it does)"
    )

if __name__ == "__main__":
    main()
