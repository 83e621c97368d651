#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

// The string literal and the comment must NOT fire: rand( strcpy( printf(
void Bad(char* dst, const char* src) {
  const char* s = "rand( printf( strcpy(";
  (void)s;
  strcpy(dst, src);
  strcat(dst, src);
  sprintf(dst, "%s", gets(dst));
  srand(1);
  printf("value: %d\n", rand());
  std::fprintf(stderr, "fprintf to stderr is fine\n");
  std::snprintf(dst, 4, "ok");
}

double BadNumbers(const std::string& t) {
  return std::stoi(t) + std::stol(t) + std::stoll(t) + std::stoul(t) +
         std::stoull(t) + std::stof(t) + std::stod(t) + std::stold(t) +
         atoi(t.c_str());
}
