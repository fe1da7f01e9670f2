#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cudasim/buffer.hpp"
#include "cudasim/device.hpp"
#include "cudasim/stream.hpp"

namespace {

using cudasim::Device;
using cudasim::DeviceBuffer;
using cudasim::Event;
using cudasim::HostMem;
using cudasim::PinnedBuffer;
using cudasim::SimulationOptions;
using cudasim::Stream;

SimulationOptions fast_options() {
  SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 1;
  return opt;
}

TEST(Stream, OpsExecuteInOrder) {
  Device dev({}, fast_options());
  Stream stream(dev);
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) {
    stream.host_fn([&log, i] { log.push_back(i); });
  }
  stream.synchronize();
  ASSERT_EQ(log.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(log[i], i);
}

TEST(Stream, RoundTripTransferPreservesData) {
  Device dev({}, fast_options());
  Stream stream(dev);
  std::vector<float> host_in(1024);
  for (std::size_t i = 0; i < host_in.size(); ++i) {
    host_in[i] = static_cast<float>(i) * 0.5f;
  }
  DeviceBuffer<float> dbuf(dev, host_in.size());
  std::vector<float> host_out(host_in.size(), -1.0f);
  stream.memcpy_to_device(dbuf, host_in.data(), host_in.size());
  stream.memcpy_to_host(host_out.data(), dbuf, host_in.size());
  stream.synchronize();
  EXPECT_EQ(host_in, host_out);
}

TEST(Stream, TransferMetricsRecorded) {
  Device dev({}, fast_options());
  Stream stream(dev);
  DeviceBuffer<char> dbuf(dev, 1000);
  std::vector<char> host(1000, 'x');
  stream.memcpy_to_device(dbuf, host.data(), 1000);
  stream.memcpy_to_host(host.data(), dbuf, 500);
  stream.synchronize();
  const auto m = dev.metrics();
  EXPECT_EQ(m.h2d_bytes, 1000u);
  EXPECT_EQ(m.d2h_bytes, 500u);
  EXPECT_GT(m.transfer_seconds, 0.0);
}

TEST(Stream, PinnedTransfersModelFasterLink) {
  Device dev({}, fast_options());
  DeviceBuffer<char> dbuf(dev, 1 << 20);
  std::vector<char> pageable(1 << 20);
  PinnedBuffer<char> pinned(dev, 1 << 20);

  Stream stream(dev);
  stream.memcpy_to_device(dbuf, pageable.data(), pageable.size(),
                          HostMem::Pageable);
  stream.synchronize();
  const double pageable_s = dev.metrics().transfer_seconds;

  dev.reset_metrics();
  stream.memcpy_to_device(dbuf, pinned.data(), pinned.size(), HostMem::Pinned);
  stream.synchronize();
  const double pinned_s = dev.metrics().transfer_seconds;

  EXPECT_LT(pinned_s, pageable_s);
  // Default model: 6 GB/s pinned vs 3 GB/s pageable -> roughly 2x.
  EXPECT_NEAR(pageable_s / pinned_s, 2.0, 0.5);
}

TEST(Event, GatesCrossStreamWork) {
  Device dev({}, fast_options());
  Stream producer(dev);
  Stream consumer(dev);
  std::atomic<int> value{0};
  Event ready;

  producer.host_fn([&] { value.store(42); });
  producer.record(ready);
  consumer.wait(ready);
  int observed = -1;
  consumer.host_fn([&] { observed = value.load(); });
  consumer.synchronize();
  EXPECT_EQ(observed, 42);
}

TEST(Event, QueryReflectsCompletion) {
  Device dev({}, fast_options());
  Event e;
  EXPECT_FALSE(e.query());
  Stream stream(dev);
  stream.record(e);
  e.wait();
  EXPECT_TRUE(e.query());
}

TEST(Stream, SynchronizeIsIdempotent) {
  Device dev({}, fast_options());
  Stream stream(dev);
  stream.host_fn([] {});
  stream.synchronize();
  stream.synchronize();
  SUCCEED();
}

TEST(Stream, ThrottledTransferSleepsModelTime) {
  cudasim::DeviceConfig cfg;
  cfg.pcie_pinned_gbps = 1.0;  // 1 GB/s -> 8 MB takes ~8 ms
  cfg.pcie_latency_us = 0.0;
  SimulationOptions opt;
  opt.throttle_transfers = true;
  opt.executor_threads = 1;
  opt.throttle_pinned_alloc = false;
  Device dev(cfg, opt);
  Stream stream(dev);
  DeviceBuffer<char> dbuf(dev, 8 << 20);
  PinnedBuffer<char> host(dev, 8 << 20);
  const auto start = std::chrono::steady_clock::now();
  stream.memcpy_to_device(dbuf, host.data(), 8 << 20, HostMem::Pinned);
  stream.synchronize();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.007);
}

TEST(Stream, ManyStreamsProgressIndependently) {
  Device dev({}, fast_options());
  std::vector<std::unique_ptr<Stream>> streams;
  std::atomic<int> total{0};
  for (int s = 0; s < 4; ++s) {
    streams.push_back(std::make_unique<Stream>(dev));
  }
  for (int i = 0; i < 25; ++i) {
    for (auto& s : streams) {
      s->host_fn([&total] { total++; });
    }
  }
  for (auto& s : streams) s->synchronize();
  EXPECT_EQ(total.load(), 100);
}

TEST(Event, ElapsedSecondsBetweenRecordedEvents) {
  Device dev({}, fast_options());
  Stream stream(dev);
  Event start, stop;
  stream.record(start);
  stream.host_fn([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  stream.record(stop);
  stream.synchronize();
  const double elapsed = Event::elapsed_seconds(start, stop);
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
}

TEST(Event, ElapsedThrowsWhenNotReady) {
  Event a, b;
  EXPECT_THROW((void)Event::elapsed_seconds(a, b), cudasim::SimError);
}

}  // namespace
