// Parser for the canonical IR text format (the inverse of ir/printer.hpp).
//
// Grammar (line oriented; ';' starts a comment):
//
//   module   := (function | reference)*
//   function := "func" "@" NAME "(" params? ")" "{" line* "}"
//   reference := "ref" "@" NAME "->" "@" NAME
//   params   := "%" REG ("," "%" REG)*
//   line     := LABEL ":" | instruction
//   instruction := ["%" REG "="] MNEMONIC operand ("," operand)*
//   operand  := "%" REG | INT | LABEL
//
// A reference declares a module-level dependency edge (see
// ir::ModuleReference); it may name functions defined later in the file.
//
// REG is a register number, 0..2^32-2 (2^32-1 is kInvalidReg); INT is a
// signed 64-bit decimal. Both are read as strtoll reads them, so leading
// white space and a '+' are allowed ("%+5" and "% 5" are %5). A number
// past its range is the diagnostic "number out of range '<token>'" on its
// line; a token that is no number at all is a label ("%-1" included).
//
// Register numbers may be sparse; the function's reg_count is one past the
// highest mentioned register. Block labels may be referenced before they are
// defined (forward branches). Duplicate and unknown labels are found once
// the function's '}' is read: a duplicate is reported on the line after the
// '}', an unknown label on the line that names it.
//
// The printer's output (ir/printer.hpp) is the canonical text, and the
// bytes a cache's stage record stores as `function_text`.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ir/function.hpp"

namespace tadfa::ir {

struct ParseError {
  std::size_t line = 0;  // 1-based line number in the input
  std::string message;
};

/// Parses a module from text. On failure returns nullopt and fills `error`.
std::optional<Module> parse_module(std::string_view text,
                                   ParseError* error = nullptr);

/// Parses text expected to contain exactly one function.
std::optional<Function> parse_function(std::string_view text,
                                       ParseError* error = nullptr);

}  // namespace tadfa::ir
