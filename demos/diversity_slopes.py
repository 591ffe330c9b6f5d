"""High-SNR diversity order of each user.

The slope of log PEP against log SNR over a 60-80 dB window converges to
the user index l: the l-th ordered Rayleigh gain contributes an omega^(2l-1)
density near zero, so the averaged error probability decays like
gamma_bar^(-l). The noise shape alpha moves the curves but not the slope.
"""

from noma_ggn import (
    GGNoiseModel,
    SystemConfig,
    canonical_event,
    diversity_order,
    pep_exact,
)

WINDOW = (60.0, 80.0)


def pep_at(snr_db, l, alpha):
    gamma_bar = 10.0 ** (snr_db / 10.0)
    cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)
    return pep_exact(canonical_event(cfg, l), GGNoiseModel.normalized(alpha)).value


def main():
    print(f"diversity slope over {WINDOW[0]:.0f}-{WINDOW[1]:.0f} dB")
    print(f"{'alpha':>6} {'user 1':>8} {'user 2':>8} {'user 3':>8}")
    for alpha in (0.5, 1.0, 2.0):
        slopes = []
        for l in (1, 2, 3):
            curve = {db: pep_at(db, l, alpha) for db in WINDOW}
            slopes.append(diversity_order(curve, WINDOW).d_s)
        print(f"{alpha:>6} " + " ".join(f"{s:8.3f}" for s in slopes))
    print("\nexpected: slope of user l converges to l, independent of alpha")


if __name__ == "__main__":
    main()
