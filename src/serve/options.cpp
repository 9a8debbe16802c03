#include "serve/options.hpp"

#include "util/strings.hpp"

namespace problp::serve {

void ServerOptions::validate() const {
  require(capacity >= 1, str_format("serve: queue capacity: found %zu, expected >= 1", capacity));
  require(batch_max >= 1, str_format("serve: batch_max: found %zu, expected >= 1", batch_max));
  require(batch_max <= capacity,
          str_format("serve: batch_max: found %zu, expected <= capacity (%zu)", batch_max,
                     capacity));
  require(flush_deadline.count() >= 0, "serve: flush_deadline: found negative, expected >= 0");
  require(workers >= 1, str_format("serve: workers: found %d, expected >= 1", workers));
  if (full_policy == FullPolicy::kBlock) {
    require(block_timeout.count() > 0,
            "serve: block_timeout: found <= 0, expected > 0 under FullPolicy::kBlock");
  }
  // The session options the workers will run with are validated by every
  // InferenceSession constructor; re-check the cheap parts here so the
  // failure names the serving stack, not a worker thread.
  require(session.batch.num_threads >= 0,
          str_format("serve: session.batch.num_threads: found %d, expected >= 0",
                     session.batch.num_threads));
}

}  // namespace problp::serve
