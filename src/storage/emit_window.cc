#include "storage/emit_window.h"

#include "util/hash.h"
#include "util/status.h"

namespace carac::storage {

void EmitWindow::Rebind(size_t arity) {
  CARAC_CHECK(pending_ == 0);
  arity_ = arity;
  buffer_.resize(kWindow * arity);
  inserted_ = 0;
}

void EmitWindow::Bind(const Relation* derived, Relation* delta_new) {
  CARAC_CHECK(derived == nullptr || derived->arity() == delta_new->arity());
  Rebind(delta_new->arity());
  derived_ = derived;
  delta_new_ = delta_new;
  staged_filter_ = nullptr;
  staging_ = nullptr;
}

void EmitWindow::BindStaged(const Relation& derived,
                            const Relation& delta_new,
                            StagingBuffer* staging) {
  CARAC_CHECK(derived.arity() == staging->arity() &&
              delta_new.arity() == staging->arity());
  Rebind(staging->arity());
  derived_ = &derived;
  delta_new_ = nullptr;
  staged_filter_ = &delta_new;
  staging_ = staging;
}

uint64_t EmitWindow::Flush() {
  if (pending_ > 0) FlushWindow();
  const uint64_t inserted = inserted_;
  inserted_ = 0;
  return inserted;
}

uint64_t EmitWindow::InsertRows(const Value* rows, size_t n) {
  CARAC_CHECK(pending_ == 0 && delta_new_ != nullptr);
  for (size_t done = 0; done < n; done += kWindow) {
    Process(rows + done * arity_, std::min(kWindow, n - done));
  }
  return Flush();
}

void EmitWindow::Process(const Value* rows, size_t n) {
  const size_t arity = arity_;
  auto row = [&](size_t i) { return TupleView(rows + i * arity, arity); };
  uint64_t hashes[kWindow];
  // Derived answers most probes (the duplicates), so its slots are
  // fetched for the whole window before the first probe waits on memory.
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = util::HashSpan(rows + i * arity, arity);
  }
  size_t misses[kWindow];
  size_t num_misses = 0;
  if (derived_ != nullptr && !derived_->empty()) {
    for (size_t i = 0; i < n; ++i) derived_->PrefetchSlot(hashes[i]);
    for (size_t i = 0; i < n; ++i) {
      if (!derived_->ContainsHashed(row(i), hashes[i])) {
        misses[num_misses++] = i;
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) misses[num_misses++] = i;
  }
  if (staging_ != nullptr) {
    for (size_t k = 0; k < num_misses; ++k) {
      const size_t i = misses[k];
      if (staged_filter_->ContainsHashed(row(i), hashes[i])) continue;
      if (staging_->InsertHashed(row(i), hashes[i])) ++inserted_;
    }
    return;
  }
  // In emission order: a duplicate later in the window finds the copy an
  // earlier tuple just inserted.
  for (size_t k = 0; k < num_misses; ++k) {
    const size_t i = misses[k];
    if (delta_new_->InsertHashed(row(i), hashes[i])) ++inserted_;
  }
}

}  // namespace carac::storage
