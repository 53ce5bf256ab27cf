#ifndef CARAC_BACKENDS_QUOTES_CODEGEN_H_
#define CARAC_BACKENDS_QUOTES_CODEGEN_H_

#include <cstdint>
#include <string>

#include "backends/bytecode.h"

namespace carac::backends {

/// Declares the struct given as its argument and defines
/// kQuotesApiSource as that declaration's text, so the engine's struct
/// and the one the generated source re-declares are a single definition.
/// The generated translation unit has no includes; its prelude typedefs
/// the fixed-width names the declaration uses.
#define CARAC_QUOTES_ABI(...) \
  __VA_ARGS__;                \
  inline constexpr char kQuotesApiSource[] = #__VA_ARGS__ ";"

/// The C ABI between generated code and the engine: one callback per
/// storage instruction of the BytecodeProgram the source was printed
/// from, taking the instruction's static operands as literals (iterator
/// slot, predicate, WindowOperand, column, relation-set or call-node
/// index) and its register operands as values. Each runs the
/// BytecodeRuntime method RunBytecode's switch runs. `next` returns the
/// slot's new current row (null when exhausted); `contains` takes the
/// tuple as a row of `n` values (null when n is 0) and a window that is
/// always RowWindow::kAll (a negation tests all of Derived); `emit`
/// returns the space the head tuple's values are written to.
CARAC_QUOTES_ABI(struct CaracQuotesApi {
  void* rt;
  void (*scan_open)(void* rt, uint32_t iter, uint32_t pred, uint32_t window);
  void (*probe_open)(void* rt, uint32_t iter, uint32_t pred, uint32_t window,
                     uint32_t col, int64_t key);
  void (*range_open)(void* rt, uint32_t iter, uint32_t pred, uint32_t window,
                     uint32_t col, uint32_t strict, int64_t lo, int64_t hi);
  const int64_t* (*next)(void* rt, uint32_t iter);
  int (*contains)(void* rt, uint32_t pred, uint32_t window,
                  const int64_t* row, uint32_t n);
  void (*spj_begin)(void* rt, uint32_t pred);
  int64_t* (*emit)(void* rt);
  void (*spj_end)(void* rt);
  void (*swap_clear)(void* rt, uint32_t set);
  int (*any_delta)(void* rt, uint32_t set);
  void (*iter_bump)(void* rt);
  void (*call_node)(void* rt, uint32_t node);
});
#undef CARAC_QUOTES_ABI

/// Entry point symbol exported by every generated shared object.
using QuotesEntryFn = void (*)(const CaracQuotesApi* api);
inline constexpr char kQuotesEntrySymbol[] = "carac_entry";

/// Prints `program` as one self-contained C++ function: one labelled
/// statement per instruction, jumps as gotos, register / check / bind /
/// compare / arithmetic instructions inlined on locals with kLoadImm
/// constants as literals, and every storage instruction a call through
/// CaracQuotesApi. Snippet vs full compilation is already decided in the
/// program (kCallNode for interpreter continuations, §V-B3).
std::string GenerateQuotesSource(const BytecodeProgram& program);

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_QUOTES_CODEGEN_H_
