// Known-bad: backoff jitter drawn from ambient entropy. The retry schedule
// then differs run to run, so a chaos replay cannot reproduce the same
// sequence of sleeps and wakeups.
#include <cstdlib>
#include <random>

namespace fixture_bad_jitter_entropy {

double jitter_from_random_device(double nominal) {
  std::random_device dev;  // FIRE(no-ambient-entropy)
  std::mt19937_64 gen(dev());
  std::uniform_real_distribution<double> dist(0.5, 1.5);  // FIRE(no-std-distributions)
  return nominal * dist(gen);
}

double jitter_from_rand(double nominal) {
  return nominal * (0.5 + static_cast<double>(rand()) / RAND_MAX);  // FIRE(no-ambient-entropy)
}

int max_attempts_from_environment() {
  const char* attempts = std::getenv("QCUT_RETRY_ATTEMPTS");  // FIRE(no-ambient-entropy)
  return attempts != nullptr ? atoi(attempts) : 3;
}

}  // namespace fixture_bad_jitter_entropy
