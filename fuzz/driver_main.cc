// Corpus replay driver: links with any LLVMFuzzerTestOneInput harness and
// runs it over explicit files/directories. This is the no-clang path —
// GCC has no -fsanitize=fuzzer, so the checked-in seed corpus replays
// under ASan/UBSan/TSan as a plain ctest regression; with clang the same
// harness object links against libFuzzer instead for coverage-guided runs.
//
// Usage: <harness>_driver <corpus-dir-or-file>...
//        <harness>_driver --enumerate <alphabet> <max_len> <lead_bytes>
// Exit 0 if every input ran to completion; the harness aborts on any
// invariant violation, so a crash IS the failure signal.
//
// --enumerate runs every string of at most <max_len> bytes over
// <alphabet>, once behind each of <lead_bytes> (for the RESP harness the
// lead byte picks the chunking). Both strings take the C escapes \r, \n,
// \t and \\. On a crash the input under test is printed in hex.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

namespace fs = std::filesystem;

// The input under test, for the crash report.
const std::string* g_current = nullptr;

void ReportCrash(int sig) {
  if (g_current != nullptr) {
    static const char kHex[] = "0123456789abcdef";
    char line[512];
    size_t n = 0;
    const char kLead[] = "crashed on input (hex):";
    for (const char* p = kLead; *p != '\0'; ++p) line[n++] = *p;
    for (size_t i = 0; i < g_current->size() && n + 4 < sizeof(line); ++i) {
      const auto b = static_cast<unsigned char>((*g_current)[i]);
      line[n++] = ' ';
      line[n++] = kHex[b >> 4];
      line[n++] = kHex[b & 0xf];
    }
    line[n++] = '\n';
    [[maybe_unused]] ssize_t w = ::write(STDERR_FILENO, line, n);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void RunInput(const std::string& bytes) {
  g_current = &bytes;
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  g_current = nullptr;
}

bool RunFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "driver: cannot read %s\n", path.c_str());
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  RunInput(bytes);
  return true;
}

std::string Unescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out.push_back(s[i]);
      continue;
    }
    switch (s[++i]) {
      case 'r': out.push_back('\r'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      default: out.push_back(s[i]); break;
    }
  }
  return out;
}

// Every string of 0..max_len symbols of `alphabet`, behind each lead byte.
size_t Enumerate(const std::string& alphabet, size_t max_len,
                 const std::string& leads) {
  size_t ran = 0;
  for (size_t len = 0; len <= max_len; ++len) {
    std::vector<size_t> digits(len, 0);
    std::string input(1 + len, alphabet[0]);
    for (;;) {
      for (const char lead : leads) {
        input[0] = lead;
        RunInput(input);
        ++ran;
      }
      // Next string of this length, last symbol fastest.
      size_t i = len;
      while (i > 0 && ++digits[i - 1] == alphabet.size()) {
        digits[i - 1] = 0;
        input[i] = alphabet[0];
        --i;
      }
      if (i == 0) break;
      input[i] = alphabet[digits[i - 1]];
    }
  }
  return ran;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGILL, ReportCrash);
  ::signal(SIGABRT, ReportCrash);
  if (argc == 5 && std::string(argv[1]) == "--enumerate") {
    const std::string alphabet = Unescape(argv[2]);
    const long max_len = std::strtol(argv[3], nullptr, 10);
    const std::string leads = Unescape(argv[4]);
    if (alphabet.empty() || leads.empty() || max_len < 0 || max_len > 12) {
      std::fprintf(stderr, "bad --enumerate arguments\n");
      return 2;
    }
    const size_t ran =
        Enumerate(alphabet, static_cast<size_t>(max_len), leads);
    std::printf("%zu enumerated input(s) ran clean\n", ran);
    return 0;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <corpus-dir-or-file>...\n"
                 "       %s --enumerate <alphabet> <max_len> <lead_bytes>\n",
                 argv[0], argv[0]);
    return 2;
  }
  size_t ran = 0;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    std::vector<fs::path> inputs;
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (e.is_regular_file()) inputs.push_back(e.path());
      }
    } else {
      inputs.push_back(p);
    }
    std::sort(inputs.begin(), inputs.end());
    for (const auto& f : inputs) {
      if (!RunFile(f)) return 2;
      ++ran;
    }
  }
  std::printf("driver: %zu input(s) replayed clean\n", ran);
  return ran == 0 ? 2 : 0;  // an empty corpus is a harness wiring bug
}
