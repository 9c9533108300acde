#include "src/obs/introspect.h"

#include <algorithm>
#include <cstdio>

#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/kern/recognition.h"

namespace mkc {

void ContinuationRegistry::Register(Continuation fn, std::string name) {
  if (fn == nullptr) {
    return;
  }
  if (FindMutable(fn) != nullptr) {
    return;  // First registration wins.
  }
  ContinuationInfo info;
  info.fn = fn;
  info.name = std::move(name);
  entries_.push_back(std::move(info));
}

ContinuationInfo* ContinuationRegistry::FindMutable(Continuation fn) {
  for (auto& e : entries_) {
    if (e.fn == fn) {
      return &e;
    }
  }
  return nullptr;
}

const ContinuationInfo* ContinuationRegistry::Find(Continuation fn) const {
  for (const auto& e : entries_) {
    if (e.fn == fn) {
      return &e;
    }
  }
  return nullptr;
}

const char* ContinuationRegistry::Name(Continuation fn) const {
  if (fn == nullptr) {
    return "<none>";
  }
  const ContinuationInfo* e = Find(fn);
  return e != nullptr ? e->name.c_str() : "<unregistered>";
}

void ContinuationRegistry::NoteBlock(Continuation fn) {
  if (ContinuationInfo* e = FindMutable(fn)) {
    ++e->blocks;
  } else {
    ++unregistered_blocks_;
  }
}

void ContinuationRegistry::NoteResume(Continuation fn) {
  if (ContinuationInfo* e = FindMutable(fn)) {
    ++e->resumes;
  } else {
    ++unregistered_resumes_;
  }
}

void ContinuationRegistry::NoteRecognition(Continuation fn) {
  if (ContinuationInfo* e = FindMutable(fn)) {
    ++e->recognitions;
  }
}

void ContinuationRegistry::ResetCounts() {
  for (auto& e : entries_) {
    e.blocks = 0;
    e.resumes = 0;
    e.recognitions = 0;
  }
  unregistered_blocks_ = 0;
  unregistered_resumes_ = 0;
}

std::string ContinuationRegistry::ReportTable(const RecognitionTable* specializations) const {
  // Hottest first: the row order is the triage order, and "hot" for a
  // recognition report is total resumptions — what the thread came back
  // through, whether by a full continuation call or a specialized handler.
  std::vector<const ContinuationInfo*> rows;
  rows.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (e.blocks == 0 && e.resumes == 0 && e.recognitions == 0) {
      continue;
    }
    rows.push_back(&e);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ContinuationInfo* a, const ContinuationInfo* b) {
                     return a->resumes + a->recognitions > b->resumes + b->recognitions;
                   });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %10s %12s %8s\n", "continuation",
                "blocks", "resumes", "recognized", "rate");
  out += line;
  for (const ContinuationInfo* e : rows) {
    // '*' marks a continuation with a specialized resume handler in the
    // recognition table — a zero "recognized" count on a starred row means
    // the handler kept declining, which is worth a look.
    const bool specialized =
        specializations != nullptr && specializations->Find(e->fn) != nullptr;
    std::snprintf(line, sizeof(line), "%-28s %10llu %10llu %12llu %7.1f%%%s\n",
                  e->name.c_str(), static_cast<unsigned long long>(e->blocks),
                  static_cast<unsigned long long>(e->resumes),
                  static_cast<unsigned long long>(e->recognitions),
                  100.0 * e->RecognitionRate(), specialized ? " *" : "");
    out += line;
  }
  if (unregistered_blocks_ != 0 || unregistered_resumes_ != 0) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %10llu %12s %8s\n", "<unregistered>",
                  static_cast<unsigned long long>(unregistered_blocks_),
                  static_cast<unsigned long long>(unregistered_resumes_), "-", "-");
    out += line;
  }
  if (specializations != nullptr) {
    out += "(* = specialized resume handler registered in the recognition table)\n";
  }
  return out;
}

namespace {

std::string ThreadDisplayName(const Thread& thread) {
  if (!thread.name.empty()) {
    return thread.name;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%u", thread.id);
  return buf;
}

}  // namespace

std::string FoldedStack(const Kernel& kernel, const Thread& thread) {
  std::string out = ThreadDisplayName(thread);
  switch (thread.state) {
    case ThreadState::kRunning:
      out += ";running";
      break;
    case ThreadState::kRunnable:
      out += ";runnable";
      break;
    case ThreadState::kWaiting: {
      out += ";blocked:";
      out += BlockReasonSlug(thread.block_reason);
      out += ';';
      // The key frame: a stackless thread's "where" is its continuation; a
      // process-model thread that kept its stack shows as "stacked".
      out += thread.continuation != nullptr ? kernel.continuations().Name(thread.continuation)
                                            : "stacked";
      if (thread.block_reason == BlockReason::kMessageReceive) {
        // The wait object: receive waits park their port id in the scratch
        // area (MsgWaitState), so the profile can split one continuation by
        // what it is actually waiting on. Port ids are allocation-order
        // deterministic.
        out += ";port";
        out += std::to_string(thread.Scratch<MsgWaitState>().port);
      }
      break;
    }
    case ThreadState::kEmbryo:
      out += ";embryo";
      break;
    case ThreadState::kHalted:
      out += ";halted";
      break;
  }
  return out;
}

std::string DescribeThread(const Kernel& kernel, const Thread& thread, Ticks now) {
  const char* state = "?";
  switch (thread.state) {
    case ThreadState::kEmbryo:
      state = "embryo";
      break;
    case ThreadState::kRunning:
      state = "running";
      break;
    case ThreadState::kRunnable:
      state = "runnable";
      break;
    case ThreadState::kWaiting:
      state = "waiting";
      break;
    case ThreadState::kHalted:
      state = "halted";
      break;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "t%-4u %-16s %-8s", thread.id,
                ThreadDisplayName(thread).c_str(), state);
  std::string out = buf;
  if (thread.state == ThreadState::kWaiting) {
    out += " reason=";
    out += BlockReasonSlug(thread.block_reason);
    out += " cont=";
    out += thread.continuation != nullptr ? kernel.continuations().Name(thread.continuation)
                                          : "stacked";
    if (thread.block_reason == BlockReason::kMessageReceive) {
      out += " port=";
      out += std::to_string(thread.Scratch<MsgWaitState>().port);
    }
    if (thread.block_start != 0 && now >= thread.block_start) {
      out += " age=";
      out += std::to_string(now - thread.block_start);
    }
  } else if (thread.state == ThreadState::kRunnable && thread.runnable_start != 0 &&
             now >= thread.runnable_start) {
    out += " queued=";
    out += std::to_string(now - thread.runnable_start);
  }
  if (thread.span_id != 0) {
    out += " span=";
    out += std::to_string(thread.span_id);
    if (thread.span_parent != 0) {
      out += "<-";
      out += std::to_string(thread.span_parent);
    }
  }
  return out;
}

}  // namespace mkc
