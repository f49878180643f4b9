//===- perfbench/src/Measure.cpp ------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace rmdbench;

int32_t SpanLog::open(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Open.empty() ? -1 : Open.back();
  R.Sample = Sample;
  int32_t Id = static_cast<int32_t>(Spans.size());
  Spans.push_back(R);
  Open.push_back(Id);
  Spans.back().StartNs = nowNs();
  return Id;
}

void SpanLog::close(int32_t Id) {
  uint64_t End = nowNs();
  assert(!Open.empty() && Open.back() == Id && "spans must nest");
  Open.pop_back();
  Spans[Id].EndNs = End;
}

double SpanLog::selfMs(int32_t Id) const {
  const SpanRecord &S = Spans[Id];
  double Ns = static_cast<double>(S.EndNs - S.StartNs);
  for (size_t I = Id + 1; I < Spans.size(); ++I)
    if (Spans[I].Parent == Id)
      Ns -= static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
  return Ns / 1e6;
}

std::map<std::string, double> SpanLog::totalsSince(size_t First) const {
  std::map<std::string, double> Out;
  for (size_t I = First; I < Spans.size(); ++I)
    Out[Spans[I].Name] += (Spans[I].EndNs - Spans[I].StartNs) / 1e6;
  return Out;
}

bool SpanLog::writeJsonLines(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    OS << "{\"id\": " << I << ", \"name\": " << jsonString(S.Name)
       << ", \"start_ns\": " << (S.StartNs - Base)
       << ", \"end_ns\": " << (S.EndNs - Base) << ", \"parent\": " << S.Parent
       << ", \"sample\": " << S.Sample << "}\n";
  }
  return static_cast<bool>(OS);
}

double rmdbench::nsPerTick() {
  static const double Value = [] {
    uint64_t N0 = nowNs(), T0 = ticks();
    while (nowNs() - N0 < 20'000'000)
      ;
    uint64_t N1 = nowNs(), T1 = ticks();
    return static_cast<double>(N1 - N0) / static_cast<double>(T1 - T0);
  }();
  return Value;
}

double rmdbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

Tail rmdbench::tail(std::vector<double> Values) {
  Tail T;
  T.Samples = Values.size();
  if (Values.empty())
    return T;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  if (N <= 10) {
    T.Value = Values.back();
    T.Percentile = 100;
    return T;
  }
  size_t Rank = N - 11; // ten samples above this one
  T.Value = Values[Rank];
  T.Percentile = 100.0 * static_cast<double>(Rank + 1) / N;
  return T;
}

double rmdbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

void Digest::bytes(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

std::string rmdbench::hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string rmdbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string rmdbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
