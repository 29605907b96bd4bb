#include "dds/cloud/vm_instance.hpp"

#include <gtest/gtest.h>

#include "dds/cloud/cloud_provider.hpp"

namespace dds {
namespace {

ResourceClass testClass(int cores) {
  return ResourceClass{"test", cores, 2.0, 100.0, 0.48};
}

VmInstance makeVm(int cores = 4) {
  return VmInstance(VmId(0), ResourceClassId(3), testClass(cores), 0.0);
}

/// The core ledger is edited only through the provider that owns it.
struct OneVm {
  explicit OneVm(int cores = 4)
      : cloud(ResourceCatalog({testClass(cores)})),
        id(cloud.acquire(ResourceClassId(0), 0.0)) {}
  [[nodiscard]] const VmInstance& vm() const { return cloud.instance(id); }

  CloudProvider cloud;
  VmId id;
};

TEST(VmInstance, StartsActiveWithAllCoresFree) {
  const auto vm = makeVm();
  EXPECT_TRUE(vm.isActive());
  EXPECT_EQ(vm.coreCount(), 4);
  EXPECT_EQ(vm.freeCoreCount(), 4);
  EXPECT_EQ(vm.allocatedCoreCount(), 0);
}

TEST(VmInstance, AllocateAssignsOwnership) {
  OneVm f;
  const int idx = f.cloud.allocateCore(f.id, PeId(7));
  const VmInstance& vm = f.vm();
  EXPECT_GE(idx, 0);
  EXPECT_EQ(vm.freeCoreCount(), 3);
  ASSERT_TRUE(vm.coreOwner(idx).has_value());
  EXPECT_EQ(*vm.coreOwner(idx), PeId(7));
  EXPECT_EQ(vm.coresOwnedBy(PeId(7)), 1);
  EXPECT_EQ(vm.coresOwnedBy(PeId(8)), 0);
}

TEST(VmInstance, AllocateUntilFullThenThrows) {
  OneVm f(2);
  f.cloud.allocateCore(f.id, PeId(1));
  f.cloud.allocateCore(f.id, PeId(2));
  EXPECT_EQ(f.vm().freeCoreCount(), 0);
  EXPECT_THROW(f.cloud.allocateCore(f.id, PeId(3)), PreconditionError);
}

TEST(VmInstance, ReleaseCoreOfFreesOne) {
  OneVm f;
  f.cloud.allocateCore(f.id, PeId(1));
  f.cloud.allocateCore(f.id, PeId(1));
  const int freed = f.cloud.releaseCoreOf(f.id, PeId(1));
  EXPECT_GE(freed, 0);
  EXPECT_EQ(f.vm().coresOwnedBy(PeId(1)), 1);
  EXPECT_EQ(f.vm().freeCoreCount(), 3);
}

TEST(VmInstance, ReleaseCoreOfUnknownPeThrows) {
  OneVm f;
  EXPECT_THROW(f.cloud.releaseCoreOf(f.id, PeId(9)), PreconditionError);
}

TEST(VmInstance, ReleaseAllCoresOf) {
  OneVm f;
  f.cloud.allocateCore(f.id, PeId(1));
  f.cloud.allocateCore(f.id, PeId(2));
  f.cloud.allocateCore(f.id, PeId(1));
  EXPECT_EQ(f.cloud.releaseAllCoresOf(f.id, PeId(1)), 2);
  EXPECT_EQ(f.vm().coresOwnedBy(PeId(1)), 0);
  EXPECT_EQ(f.vm().coresOwnedBy(PeId(2)), 1);
  EXPECT_EQ(f.cloud.releaseAllCoresOf(f.id, PeId(1)), 0);  // idempotent
}

TEST(VmInstance, CoreOwnerOutOfRangeThrows) {
  const auto vm = makeVm(2);
  EXPECT_THROW((void)vm.coreOwner(-1), PreconditionError);
  EXPECT_THROW((void)vm.coreOwner(2), PreconditionError);
}

TEST(VmInstance, OffTimeInfiniteWhileActive) {
  const auto vm = makeVm();
  EXPECT_EQ(vm.offTime(), std::numeric_limits<SimTime>::infinity());
}

}  // namespace
}  // namespace dds
