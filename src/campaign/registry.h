// The shared factory registry: one place that maps string names to
// constructors for every algorithm, adversary, static graph family, and
// placement in the library. Extracted from the duplicated if-chains in
// tools/dyndisp_sim.cpp and the bench binaries so that the CLI tools, the
// campaign engine, and the benches all resolve the same name to the same
// construction (same seeds, same parameters) -- which is what makes a
// campaign record comparable to a one-off dyndisp_sim run.
//
// Names are stable identifiers (they appear in campaign specs, JSONL
// records, and CLI flags); renaming one is a format break.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/algorithm.h"
#include "sim/fault.h"

namespace dyndisp::campaign {

/// An algorithm factory plus the model requirements dyndisp_sim used to
/// default --comm and --knowledge from.
struct AlgorithmChoice {
  AlgorithmFactory factory;
  bool needs_global = false;
  bool needs_knowledge = false;
};

/// Immutable singleton registry. All lookups throw std::invalid_argument
/// naming the offending key and category on an unknown name, so spec
/// validation errors read like CLI errors.
class Registry {
 public:
  static const Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `seed` parameterizes the few randomized algorithms (random-walk).
  AlgorithmChoice algorithm(const std::string& name, std::uint64_t seed) const;

  /// `family` is consulted only by the static adversaries.
  std::unique_ptr<Adversary> adversary(const std::string& name,
                                       const std::string& family,
                                       std::size_t n, std::uint64_t seed) const;

  /// A static graph family instance on ~n nodes.
  Graph family(const std::string& name, std::size_t n,
               std::uint64_t seed) const;

  /// `groups` is consulted only by the grouped placement.
  Configuration placement(const std::string& name, std::size_t n,
                          std::size_t k, std::size_t groups,
                          std::uint64_t seed) const;

  bool has_algorithm(const std::string& name) const;
  bool has_adversary(const std::string& name) const;
  bool has_family(const std::string& name) const;
  bool has_placement(const std::string& name) const;

  /// Registered names in lexicographic order (deterministic for --list).
  std::vector<std::string> algorithm_names() const;
  std::vector<std::string> adversary_names() const;
  std::vector<std::string> family_names() const;
  std::vector<std::string> placement_names() const;

 private:
  Registry();

  using AlgorithmFn = std::function<AlgorithmChoice(std::uint64_t seed)>;
  using AdversaryFn = std::function<std::unique_ptr<Adversary>(
      const std::string& family, std::size_t n, std::uint64_t seed)>;
  using FamilyFn =
      std::function<Graph(std::size_t n, std::uint64_t seed)>;
  using PlacementFn = std::function<Configuration(
      std::size_t n, std::size_t k, std::size_t groups, std::uint64_t seed)>;

  std::map<std::string, AlgorithmFn> algorithms_;
  std::map<std::string, AdversaryFn> adversaries_;
  std::map<std::string, FamilyFn> families_;
  std::map<std::string, PlacementFn> placements_;
};

/// The crash schedule every client derives for a (k, faults, seed) tuple:
/// no faults when `faults` is 0, else FaultSchedule::random over the
/// horizon [0, k) on the seed*17+5 stream -- one construction, so campaign
/// records and dyndisp_sim runs agree. Throws std::invalid_argument naming
/// both values when faults > k (specs and flags are untrusted input).
FaultSchedule crash_faults(std::size_t k, std::size_t faults,
                           std::uint64_t seed);

}  // namespace dyndisp::campaign
