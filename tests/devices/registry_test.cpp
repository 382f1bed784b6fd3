#include "devices/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "devices/memory_device.hpp"

namespace pmemflow::devices {
namespace {

/// What NodeDevices::fingerprint() must equal: a digest, taken now, of
/// the default spec and each (socket, override) in socket order.
std::uint64_t fresh_digest(
    const DeviceSpec& default_spec,
    const std::vector<std::pair<topo::SocketId, DeviceSpec>>& overrides) {
  Hasher64 hasher;
  hasher.update_string(serialize_device_spec(default_spec));
  for (const auto& [socket, spec] : overrides) {
    hasher.update_u64(socket);
    hasher.update_string(serialize_device_spec(spec));
  }
  return hasher.digest();
}

DeviceSpec preset_spec(const char* name) {
  auto preset = DeviceRegistry::builtin().find(name);
  EXPECT_TRUE(preset.has_value()) << name;
  return preset->spec;
}

TEST(Registry, BuiltinNamesAreStable) {
  std::set<std::string> names;
  for (const auto& preset : DeviceRegistry::builtin().presets()) {
    names.insert(preset.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"optane-gen1", "optane-gen2",
                                          "cxl-like", "dram-like"}));
}

TEST(Registry, UnknownPresetIsRecoverableError) {
  const auto missing = DeviceRegistry::builtin().find("optane-gen3");
  ASSERT_FALSE(missing.has_value());
  // The error must be self-diagnosing: it names the known presets.
  EXPECT_NE(missing.error().message.find("optane-gen1"), std::string::npos)
      << missing.error().message;
}

TEST(Registry, ParseBackendUnknownNameIsError) {
  EXPECT_FALSE(parse_backend("nvm-9000").has_value());
  EXPECT_FALSE(parse_backend("optane-gen1/nvm-9000").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
}

TEST(Registry, PresetParamsRoundTripThroughSerialization) {
  for (const auto& preset : DeviceRegistry::builtin().presets()) {
    const std::string text = serialize_device_spec(preset.spec);
    const auto parsed = parse_device_spec(text);
    ASSERT_TRUE(parsed.has_value()) << preset.name << ": "
                                    << parsed.error().message;
    EXPECT_EQ(serialize_device_spec(*parsed), text) << preset.name;
    EXPECT_EQ(parsed->fingerprint(), preset.spec.fingerprint())
        << preset.name;
    EXPECT_EQ(parsed->kind, preset.spec.kind) << preset.name;
  }
}

TEST(Registry, ParseRejectsUnknownKey) {
  EXPECT_FALSE(parse_device_spec("kind=optane optane.bogus=1").has_value());
}

TEST(Registry, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_device_spec("").has_value());
  EXPECT_FALSE(parse_device_spec("optane.read_peak=39.4").has_value());
  EXPECT_FALSE(parse_device_spec("kind=floppy").has_value());
  EXPECT_FALSE(
      parse_device_spec("kind=optane optane.read_peak=fast").has_value());
  // Out-of-range values are errors, never wrapped or saturated into
  // the field: a negative or too-large integer, a non-finite double.
  for (const char* bad : {
           "kind=optane optane.interleave_ways=4294967297",
           "kind=optane optane.interleave_ways=-1",
           "kind=optane capacity=-1",
           "kind=optane capacity=18446744073709551616",
           "kind=optane optane.stripe_chunk=-4096",
           "kind=optane optane.read_peak=1e999",
           "kind=optane optane.read_peak=-1e999",
           "kind=optane optane.read_peak=nan",
           "kind=optane optane.read_peak=inf",
           "kind=cxl cxl.link_bandwidth=nan",
       }) {
    EXPECT_FALSE(parse_device_spec(bad).has_value()) << bad;
  }
  // The largest value of each integer type still parses.
  const auto widest = parse_device_spec(
      "kind=optane optane.interleave_ways=4294967295 "
      "capacity=18446744073709551615");
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->optane.interleave_ways, 4294967295u);
  EXPECT_EQ(widest->capacity, 18446744073709551615ull);
}

TEST(Registry, FingerprintsDistinguishPresets) {
  std::set<std::uint64_t> fingerprints;
  for (const auto& preset : DeviceRegistry::builtin().presets()) {
    fingerprints.insert(preset.spec.fingerprint());
  }
  EXPECT_EQ(fingerprints.size(),
            DeviceRegistry::builtin().presets().size());
}

TEST(Registry, FingerprintTracksParameterChanges) {
  DeviceSpec spec;
  const std::uint64_t base = spec.fingerprint();
  spec.optane.read_peak *= 1.3;
  EXPECT_NE(spec.fingerprint(), base);
}

TEST(Registry, CapacityRoundTripsThroughSerialization) {
  DeviceSpec spec;
  spec.capacity = 128 * kGB + 17;  // odd byte count: must survive exactly
  const std::string text = serialize_device_spec(spec);
  EXPECT_NE(text.find("capacity=128000000017"), std::string::npos) << text;
  const auto parsed = parse_device_spec(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->capacity, spec.capacity);
  EXPECT_EQ(parsed->fingerprint(), spec.fingerprint());
}

TEST(Registry, CapacityChangesTheFingerprint) {
  DeviceSpec spec;
  const std::uint64_t platform_sized = spec.fingerprint();
  spec.capacity = 128 * kGB;
  EXPECT_NE(spec.fingerprint(), platform_sized);
  spec.capacity += 1;
  EXPECT_NE(spec.fingerprint(), platform_sized);
}

TEST(Registry, BuiltinPresetsArePlatformSized) {
  // Presets leave capacity 0 so the scheduler's pmem_per_socket (or
  // the caller's space size) decides; capacity_or is the fallback.
  for (const auto& preset : DeviceRegistry::builtin().presets()) {
    EXPECT_EQ(preset.spec.capacity, 0u) << preset.name;
    EXPECT_EQ(preset.spec.capacity_or(256 * kGB), 256 * kGB) << preset.name;
  }
  DeviceSpec pinned;
  pinned.capacity = 64 * kGB;
  EXPECT_EQ(pinned.capacity_or(256 * kGB), 64 * kGB);
}

TEST(Registry, InstantiateHonoursCapacityOverCaller) {
  // The device constructor receives the resolved space size; a
  // spec-pinned capacity must have been applied by the caller via
  // capacity_or. Verify the plumbing end to end at both sizes.
  sim::Engine engine;
  DeviceSpec spec;
  const MemoryDevice small(engine, 0, 1 * kGiB, spec);
  const MemoryDevice big(engine, 0, 4 * kGiB, spec);
  EXPECT_EQ(small.space().capacity(), 1 * kGiB);
  EXPECT_EQ(big.space().capacity(), 4 * kGiB);
}

TEST(Registry, DeviceKindRoundTrip) {
  for (const DeviceKind kind :
       {DeviceKind::kOptane, DeviceKind::kDram, DeviceKind::kCxl}) {
    const auto parsed = parse_device_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_device_kind("floppy").has_value());
}

TEST(Registry, UniformLocalityFollowsKind) {
  DeviceSpec spec;
  EXPECT_FALSE(spec.uniform_locality());
  spec.kind = DeviceKind::kDram;
  EXPECT_TRUE(spec.uniform_locality());
  spec.kind = DeviceKind::kCxl;
  EXPECT_TRUE(spec.uniform_locality());
}

TEST(Registry, PerSocketBackendParse) {
  const auto mixed = parse_backend("optane-gen1/cxl-like");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->for_socket(0).kind, DeviceKind::kOptane);
  EXPECT_EQ(mixed->for_socket(1).kind, DeviceKind::kCxl);

  const auto uniform = parse_backend("optane-gen1");
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->for_socket(1).fingerprint(),
            uniform->for_socket(0).fingerprint());
  EXPECT_NE(mixed->fingerprint(), uniform->fingerprint());
}

TEST(Registry, StoredNodeFingerprintMatchesAFreshDigest) {
  // NodeDevices computes its fingerprint when its specs are set and
  // fingerprint() returns the stored value: it must never drift from a
  // digest of the specs as they stand.
  EXPECT_EQ(NodeDevices().fingerprint(), fresh_digest(DeviceSpec{}, {}));
  EXPECT_EQ(NodeDevices().fingerprint(), NodeDevices().fingerprint());

  const DeviceSpec cxl = preset_spec("cxl-like");
  const DeviceSpec dram = preset_spec("dram-like");
  EXPECT_EQ(NodeDevices(cxl).fingerprint(), fresh_digest(cxl, {}));

  pmemsim::OptaneParams optane;
  optane.read_peak *= 1.5;
  interconnect::UpiParams upi;
  upi.link_bandwidth *= 0.5;
  DeviceSpec legacy;
  legacy.optane = optane;
  legacy.upi = upi;
  EXPECT_EQ(NodeDevices(legacy).fingerprint(), fresh_digest(legacy, {}));
  EXPECT_NE(NodeDevices(legacy).fingerprint(), NodeDevices().fingerprint());

  NodeDevices mixed(cxl);
  mixed.set_socket(1, dram);
  EXPECT_EQ(mixed.fingerprint(), fresh_digest(cxl, {{1, dram}}));
  mixed.set_socket(0, dram);  // overrides replace, in socket order
  mixed.set_socket(1, cxl);
  EXPECT_EQ(mixed.fingerprint(), fresh_digest(cxl, {{0, dram}, {1, cxl}}));

  // Copies carry the value; mutating a copy re-digests only the copy.
  NodeDevices copy = mixed;
  EXPECT_EQ(copy.fingerprint(), mixed.fingerprint());
  copy.set_socket(1, dram);
  EXPECT_EQ(copy.fingerprint(), fresh_digest(cxl, {{0, dram}, {1, dram}}));
  EXPECT_EQ(mixed.fingerprint(), fresh_digest(cxl, {{0, dram}, {1, cxl}}));
  copy = NodeDevices(dram);
  EXPECT_EQ(copy.fingerprint(), fresh_digest(dram, {}));
}

}  // namespace
}  // namespace pmemflow::devices
