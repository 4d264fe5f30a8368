/**
 * @file
 * Seeded input generation: subject networks, request tensors, input
 * picks, the open-loop arrival schedule and the shipped bundles. The
 * same seed always gives the same inputs, and the digests below let a
 * result line prove it. Everything here runs before a workload's
 * clock starts.
 */

#ifndef PB_INPUTS_HH
#define PB_INPUTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_file.hh"
#include "models/zoo.hh"
#include "serve/engine.hh"

namespace pb {

/** Algorithm knobs of every workload: bench_serve's operating point
 *  (vector threshold 0.01 with a 50% vector-sparsity floor, Table II's
 *  regime for VGG19). */
se::core::SeOptions seOptions();

/** A subject network: a reduced-scale zoo architecture with seeded
 *  weights, at bench_serve's serving geometry (base width 12, 8x8). */
struct Subject
{
    se::models::ModelId id = se::models::ModelId::VGG19;
    se::models::SimConfig cfg;

    std::unique_ptr<se::nn::Sequential> build() const;
    se::serve::NetFactory factory() const;
};

Subject makeSubject(se::models::ModelId id, uint64_t seed);

/** An independent seed for stream `stream` of a run seeded `seed`. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** `n` request tensors of the subjects' (C, H, W) input shape. */
std::vector<se::Tensor> makeTraffic(uint64_t seed, size_t n);

/** `n` uniform picks from a pool of `pool` inputs. */
std::vector<uint32_t> makePicks(uint64_t seed, size_t n, size_t pool);

/** One open-loop arrival. */
struct Arrival
{
    double dueMs = 0.0;  ///< since the load phase started
    uint32_t tenant = 0;
    uint32_t input = 0;
};

/**
 * Poisson arrivals at `rate` per second over [0, durationMs), tenants
 * alternating round-robin, inputs picked uniformly from `pool`.
 */
std::vector<Arrival> poissonSchedule(uint64_t seed, double rate,
                                     double durationMs, uint32_t tenants,
                                     size_t pool);

uint64_t digestTraffic(const std::vector<se::Tensor> &traffic);
uint64_t digestSchedule(const std::vector<Arrival> &schedule);
uint64_t digestBytes(const std::string &bytes);

/** Compress a subject to shippable records; `forV4` also snaps the
 *  bases to the int8 grid v4 bundles require. */
se::core::CompressedModel compressSubject(const Subject &s, bool forV4);

std::string saveV3(const se::core::CompressedModel &m);
std::string saveV4(const se::core::CompressedModel &m);

/** Write bytes to a file; throws std::runtime_error on failure. */
void writeFile(const std::string &path, const std::string &bytes);

/** Records and residuals bit-for-bit equal (the bundle check). */
bool sameRecords(const std::vector<se::core::SeLayerRecord> &a,
                 const std::vector<se::core::SeLayerRecord> &b);
bool sameDense(const std::vector<se::core::DenseTensor> &a,
               const std::vector<se::core::DenseTensor> &b);

} // namespace pb

#endif // PB_INPUTS_HH
