#include "core/barrierless_driver.h"

#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::core {

namespace {

/// Times each Update into bmr_reduce_invoke_us; handed to the store in
/// place of the app's reducer for sampled records only.
struct TimedUpdate final : IncrementalReducer {
  TimedUpdate(IncrementalReducer* r, obs::Tracer* t) : inner(r), tracer(t) {}
  std::string InitPartial(Slice key) override {
    return inner->InitPartial(key);
  }
  void Update(Slice key, Slice value, std::string* partial,
              mr::ReduceEmitter* out) override {
    obs::LatencyTimer invoke(tracer, obs::kHReduceInvokeUs);
    inner->Update(key, value, partial, out);
  }
  IncrementalReducer* inner;
  obs::Tracer* tracer;
};

/// PreloadPartial's fold: installs the snapshot value verbatim.
struct InstallVerbatim final : IncrementalReducer {
  void Update(Slice /*key*/, Slice value, std::string* partial,
              mr::ReduceEmitter* /*out*/) override {
    partial->assign(value.data(), value.size());
  }
};

}  // namespace

BarrierlessDriver::BarrierlessDriver(IncrementalReducer* reducer,
                                     const StoreConfig& store_config,
                                     const Config& job_config)
    : reducer_(reducer), tracer_(store_config.tracer) {
  reducer_->Setup(job_config);
  if (reducer_->UsesStore()) {
    store_ = CreatePartialStore(store_config);
  }
}

Status BarrierlessDriver::Consume(Slice key, Slice value,
                                  mr::ReduceEmitter* out) {
  if (finalized_) {
    return Status::FailedPrecondition("Consume after Finalize");
  }
  // Sampled (1 in 32) per-op latency: a sample costs four clock reads
  // and two histogram adds, and 1 in 32 keeps that under a tenth of
  // the hashed fold it measures.
  obs::Tracer* sampled =
      (tracer_ != nullptr && (records_consumed_ & 31) == 0) ? tracer_
                                                            : nullptr;
  ++records_consumed_;
  if (!store_) {
    // Identity / cross-key reducers: no per-key partial results.
    obs::LatencyTimer invoke(sampled, obs::kHReduceInvokeUs);
    reducer_->Update(key, value, /*partial=*/nullptr, out);
    return Status::Ok();
  }
  TimedUpdate timed(reducer_, sampled);
  obs::LatencyTimer fold(sampled, obs::kHStoreFoldUs);
  return store_->Fold(key, value, sampled != nullptr ? &timed : reducer_, out);
}

Status BarrierlessDriver::Finalize(mr::ReduceEmitter* out) {
  return FinalizeWithSnapshot(out, nullptr);
}

Status BarrierlessDriver::PreloadPartial(Slice key, Slice partial) {
  if (finalized_) {
    return Status::FailedPrecondition("PreloadPartial after Finalize");
  }
  if (records_consumed_ > 0) {
    return Status::FailedPrecondition(
        "PreloadPartial must precede the first Consume");
  }
  if (!store_) return Status::Ok();  // stateless reducers: nothing to seed
  InstallVerbatim install;
  return store_->Fold(key, partial, &install, /*out=*/nullptr);
}

Status BarrierlessDriver::EmitSnapshot(mr::ReduceEmitter* out) {
  if (finalized_) return Status::FailedPrecondition("snapshot after Finalize");
  if (!store_) return Status::Ok();  // stateless reducers emit eagerly
  IncrementalReducer* reducer = reducer_;
  return store_->ForEachCurrent(
      [reducer](Slice key, Slice a, Slice b) {
        return reducer->MergePartials(key, a, b);
      },
      [reducer, out](Slice key, Slice partial) {
        reducer->Finish(key, partial, out);
      });
}

Status BarrierlessDriver::FinalizeWithSnapshot(
    mr::ReduceEmitter* out, std::vector<mr::Record>* snapshot) {
  if (finalized_) return Status::Ok();
  finalized_ = true;
  if (store_) {
    IncrementalReducer* reducer = reducer_;
    BMR_RETURN_IF_ERROR(store_->ForEachMerged(
        [reducer](Slice key, Slice a, Slice b) {
          return reducer->MergePartials(key, a, b);
        },
        [reducer, out, snapshot](Slice key, Slice partial) {
          if (snapshot != nullptr) {
            snapshot->emplace_back(key.ToString(), partial.ToString());
          }
          reducer->Finish(key, partial, out);
        }));
  }
  reducer_->Flush(out);
  return Status::Ok();
}

}  // namespace bmr::core
