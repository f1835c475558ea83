// Struct clears and copies over a code pointer. Under CPS the handler
// lives only in the safe store, so a plain memset would leave a.f's old
// pointer behind and a plain memcpy would leave c.f without one: both
// must become the safe-store-aware variants, and every protection must
// print "cleared" and 42.
struct S { int (*f)(int); int x; };

int inc(int v) { return v + 1; }

int main() {
  struct S a;
  struct S b;
  struct S c;
  a.f = inc;
  a.x = 7;
  memset(&a, 0, 2);
  if (a.f == 0) {
    print_str("cleared");
  } else {
    print_str("stale");
  }
  b.f = inc;
  b.x = 7;
  memcpy(&c, &b, 2);
  print_int(c.f(41));
  return 0;
}
