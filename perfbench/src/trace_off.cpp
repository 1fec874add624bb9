// The untraced runner's span recorder: every call is a no-op, so the
// end-to-end measurements carry no tracing cost.
#include "trace.hpp"

namespace perfbench::trace {

bool compiledIn() { return false; }
void setRecording(bool) {}
Scope::Scope(Kind, std::int64_t) {}
Scope::~Scope() {}
void beginStep(int) {}
void endStep() {}
Summary summarize(const std::vector<int>&) { return {}; }
std::int64_t writeChrome(const std::string&, std::int64_t) { return 0; }
void clear() {}
std::vector<std::string> unresolvedEntryPoints() { return {}; }

} // namespace perfbench::trace
