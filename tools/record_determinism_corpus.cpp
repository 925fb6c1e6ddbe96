// Prints the determinism-corpus fingerprint tables (see
// tests/determinism_corpus.h) in the exact form the tests pin: first the
// simulator corpus (test_determinism.cpp), then the threaded corpus
// (test_threaded_runtime.cpp).
//
// Run after any *deliberate* semantic change to the simulator or the
// threaded runtime, and paste the output over the matching
// kExpectedFingerprints table — the accompanying CHANGES.md entry should say
// why the trajectories moved.
#include <iostream>

#include "../tests/determinism_corpus.h"

int main() {
  for (const ss::CorpusCase& c : ss::determinism_corpus()) {
    const ss::RunResult r = ss::TrainingSession(c.request).run();
    std::cout << "    {\"" << c.name << "\", \"" << ss::result_fingerprint(r)
              << "\"},\n";
  }
  std::cout << "\n";
  const ss::DataSplit split = ss::threaded_corpus_data();
  const ss::Model prototype = ss::threaded_corpus_model(split);
  for (const ss::ThreadedCorpusCase& c : ss::threaded_determinism_corpus())
    std::cout << "      {\"" << c.name << "\", \"" << ss::run_threaded_case(c, split, prototype)
              << "\"},\n";
  return 0;
}
