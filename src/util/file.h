// The one way an artifact (CSV, JSON, Prometheus text, folded stacks,
// Chrome trace, bench report) reaches disk: build it as a string, then
// hand it to WriteFile.
#pragma once

#include <string>
#include <string_view>

namespace repro {

// Replaces `path` with `content`. Returns true only if every byte was
// written and the file closed cleanly: a buffered write to a full disk
// fails at fclose, not at fwrite, so both are checked.
bool WriteFile(const std::string& path, std::string_view content);

}  // namespace repro
