// A generated pointer-rich program: the output of benchmark/gen.ml's
// Gen.source ~seed:1 ~funcs:120 (the gen-build workload's generator),
// saved verbatim. test_determinism pins its instrumentation digests
// under all 11 protections; regenerating it changes those digests.
struct node;
struct ops { int (*fa)(int); int (*fb)(int, int); };
struct node { int key; int vals[4]; void *next; struct ops *ops;
              int (*visit)(struct node *); };
int g_arr[32];
int la_0(int x) { return ((x * 70) + 162) & 65535; }
int la_1(int x) { return ((x * 66) + 17) & 65535; }
int la_2(int x) { return ((x * 65) + 132) & 65535; }
int la_3(int x) { return ((x * 16) + 236) & 65535; }
int la_4(int x) { return ((x * 59) + 14) & 65535; }
int la_5(int x) { return ((x * 66) + 168) & 65535; }
int la_6(int x) { return ((x * 73) + 105) & 65535; }
int la_7(int x) { return ((x * 85) + 120) & 65535; }
int lb_0(int x, int y) { return ((x ^ (y * 70)) + 150) & 65535; }
int lb_1(int x, int y) { return ((x ^ (y * 59)) + 166) & 65535; }
int lb_2(int x, int y) { return ((x ^ (y * 84)) + 40) & 65535; }
int lb_3(int x, int y) { return ((x ^ (y * 54)) + 252) & 65535; }
int lb_4(int x, int y) { return ((x ^ (y * 72)) + 245) & 65535; }
int lb_5(int x, int y) { return ((x ^ (y * 84)) + 109) & 65535; }
int lb_6(int x, int y) { return ((x ^ (y * 9)) + 33) & 65535; }
int lb_7(int x, int y) { return ((x ^ (y * 16)) + 215) & 65535; }
int lv_0(struct node *p) { return ((p->key * 62) + p->vals[3]) & 65535; }
int lv_1(struct node *p) { return ((p->key * 69) + p->vals[0]) & 65535; }
int lv_2(struct node *p) { return ((p->key * 88) + p->vals[0]) & 65535; }
int lv_3(struct node *p) { return ((p->key * 79) + p->vals[3]) & 65535; }
int lv_4(struct node *p) { return ((p->key * 33) + p->vals[0]) & 65535; }
int lv_5(struct node *p) { return ((p->key * 53) + p->vals[2]) & 65535; }
int lv_6(struct node *p) { return ((p->key * 87) + p->vals[3]) & 65535; }
int lv_7(struct node *p) { return ((p->key * 77) + p->vals[1]) & 65535; }
int (*tab_a[8])(int) = { la_3, la_2, la_4, la_5, la_0, la_0, la_7, la_7 };
int (*tab_b[8])(int, int) = { lb_7, lb_4, lb_2, lb_2, lb_4, lb_7, lb_4, lb_3 };
int (*tab_v[4])(struct node *) = { lv_2, lv_4, lv_3, lv_3 };
struct ops ops_tab[4] = { { la_3, lb_1 }, { la_7, lb_1 }, { la_3, lb_5 }, { la_3, lb_6 } };

struct node *mk_node(int k, struct node *next, int w) {
  struct node *p = (struct node *) malloc(sizeof(struct node));
  int j = 0;
  p->key = k & 255;
  for (j = 0; j < 4; j = j + 1) { p->vals[j] = (k + j * 7) & 255; }
  p->next = (void *) next;
  p->ops = &ops_tab[w & 3];
  p->visit = tab_v[w & 3];
  return p;
}
int sum_arr(int *p, int n) {
  int s = 0;
  int j = 0;
  for (j = 0; j < n; j = j + 1) { s = s + p[j]; }
  return s & 65535;
}
void free_list(struct node *p) {
  struct node *q = 0;
  while (p != 0) {
    q = (struct node *) p->next;
    free((void *) p);
    p = q;
  }
}
int f_0(int x) {
  int acc = (x + 767) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 25) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_a[(acc + 33) & 7](loc[2])) & 65535;
  acc = (acc + f_1((acc + 183) & 1023)) & 65535;
  g_arr[(acc + 209) & 31] = acc;
  acc = (acc + g_arr[17]) & 65535;
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_1(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_1(int x) {
  int acc = (x + 2) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 28) & 255; }
  n = mk_node(acc + 99, n, 102);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 164)) & 65535;
  acc = (acc + tab_b[(x + 203) & 7](acc, loc[3])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 187) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 133)) & 65535; }
  acc = (acc + f_2(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_2(int x) {
  int acc = (x + 156) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 27) & 255; }
  lo.fa = tab_a[3];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 131)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_a[(acc + 154) & 7](loc[1])) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 71)) & 65535; }
  acc = (acc + f_3(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_3(int x) {
  int acc = (x + 864) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 24) & 255; }
  n = mk_node(acc + 194, n, 195);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 15) & 31] = acc;
  acc = (acc + g_arr[15]) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 208) & 65535;
  acc = (acc + tab_b[(x + 64) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_4((acc + 137) & 1023)) & 65535;
  acc = (acc + f_4(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_4(int x) {
  int acc = (x + 105) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  g_arr[(acc + 137) & 31] = acc;
  acc = (acc + g_arr[9]) & 65535;
  acc = (acc + f_5((acc + 222) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 74)) & 65535; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_b[(x + 15) & 7](acc, loc[3])) & 65535;
  acc = (acc + f_5(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_5(int x) {
  int acc = (x + 81) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 28) & 255; }
  acc = (acc + tab_a[(acc + 77) & 7](loc[3])) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[0] + 132) & 65535;
  n = mk_node(acc + 216, n, 219);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[7];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 228)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_6(int x) {
  int acc = (x + 840) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 7) & 255; }
  lo.fa = tab_a[1];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 161)) & 65535;
  acc = (acc + f_7((acc + 114) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 81) & 65535;
  n = mk_node(acc + 170, n, 171);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_7(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_7(int x) {
  int acc = (x + 858) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 11) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 222)) & 65535; }
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_a[(acc + 167) & 7](loc[3])) & 65535;
  acc = (acc + tab_b[(x + 3) & 7](acc, loc[1])) & 65535;
  g_arr[(acc + 20) & 31] = acc;
  acc = (acc + g_arr[20]) & 65535;
  acc = (acc + f_8(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_8(int x) {
  int acc = (x + 654) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 28) & 255; }
  fp = tab_a[3];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  n = mk_node(acc + 26, n, 29);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  lo.fa = tab_a[5];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 213)) & 65535;
  acc = (acc + f_9((acc + 122) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_9(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_9(int x) {
  int acc = (x + 299) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 4) & 255; }
  acc = (acc + tab_b[(x + 81) & 7](acc, loc[0])) & 65535;
  g_arr[(acc + 234) & 31] = acc;
  acc = (acc + g_arr[10]) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 111)) & 65535; }
  acc = (acc + tab_a[(acc + 237) & 7](loc[0])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[3] + 4) & 65535;
  acc = (acc + f_10(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_10(int x) {
  int acc = (x + 887) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 18) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  g_arr[(acc + 20) & 31] = acc;
  acc = (acc + g_arr[20]) & 65535;
  acc = (acc + tab_a[(acc + 134) & 7](loc[0])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 32) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 169)) & 65535; }
  acc = (acc + f_11(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_11(int x) {
  int acc = (x + 410) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 13) & 255; }
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_12((acc + 141) & 1023)) & 65535;
  lo.fa = tab_a[6];
  lo.fb = tab_b[7];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 126)) & 65535;
  acc = (acc + tab_b[(x + 215) & 7](acc, loc[0])) & 65535;
  n = mk_node(acc + 130, n, 131);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_12(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_12(int x) {
  int acc = (x + 720) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 20) & 255; }
  lo.fa = tab_a[4];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 84)) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_b[(x + 132) & 7](acc, loc[0])) & 65535;
  n = mk_node(acc + 162, n, 163);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_13(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_13(int x) {
  int acc = (x + 935) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 9) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 188)) & 65535; }
  acc = (acc + tab_a[(acc + 147) & 7](loc[0])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[1] + 99) & 65535;
  g_arr[(acc + 159) & 31] = acc;
  acc = (acc + g_arr[31]) & 65535;
  loc[3] = (loc[1] * 9 + acc) & 255;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_14(int x) {
  int acc = (x + 381) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 25) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 79)) & 65535; }
  acc = (acc + tab_b[(x + 114) & 7](acc, loc[0])) & 65535;
  acc = (acc + tab_a[(acc + 35) & 7](loc[2])) & 65535;
  acc = (acc + f_15((acc + 70) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_15(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_15(int x) {
  int acc = (x + 717) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 18) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[2] + 247) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 169) & 31] = acc;
  acc = (acc + g_arr[9]) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 171)) & 65535;
  n = mk_node(acc + 53, n, 55);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_16(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_16(int x) {
  int acc = (x + 752) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 8) & 255; }
  g_arr[(acc + 132) & 31] = acc;
  acc = (acc + g_arr[4]) & 65535;
  acc = (acc + f_17((acc + 136) & 1023)) & 65535;
  acc = (acc + tab_b[(x + 126) & 7](acc, loc[2])) & 65535;
  n = mk_node(acc + 103, n, 105);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[4];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 204)) & 65535;
  acc = (acc + f_17(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_17(int x) {
  int acc = (x + 508) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 197)) & 65535; }
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_a[(acc + 186) & 7](loc[3])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 123) & 65535;
  acc = (acc + f_18(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_18(int x) {
  int acc = (x + 425) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 11) & 255; }
  acc = (acc + tab_a[(acc + 27) & 7](loc[0])) & 65535;
  loc[2] = (loc[0] * 15 + acc) & 255;
  cp = (char *) loc;
  acc = (acc + cp[3] + 147) & 65535;
  acc = (acc + tab_b[(x + 190) & 7](acc, loc[2])) & 65535;
  lo.fa = tab_a[2];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 218)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_19(int x) {
  int acc = (x + 66) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 7) & 255; }
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 182)) & 65535; }
  n = mk_node(acc + 88, n, 89);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  g_arr[(acc + 116) & 31] = acc;
  acc = (acc + g_arr[20]) & 65535;
  acc = (acc + f_20(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_20(int x) {
  int acc = (x + 751) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 19) & 255; }
  acc = (acc + tab_b[(x + 159) & 7](acc, loc[1])) & 65535;
  fp = tab_a[3];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 199)) & 65535; }
  n = mk_node(acc + 52, n, 52);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_21(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_21(int x) {
  int acc = (x + 36) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 9) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[2] + 213) & 65535;
  g_arr[(acc + 30) & 31] = acc;
  acc = (acc + g_arr[30]) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 20)) & 65535;
  acc = (acc + f_22((acc + 88) & 1023)) & 65535;
  acc = (acc + tab_a[(acc + 196) & 7](loc[3])) & 65535;
  acc = (acc + f_22(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_22(int x) {
  int acc = (x + 728) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 31) & 255; }
  acc = (acc + tab_a[(acc + 32) & 7](loc[1])) & 65535;
  n = mk_node(acc + 58, n, 60);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 38)) & 65535; }
  lo.fa = tab_a[5];
  lo.fb = tab_b[0];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 77)) & 65535;
  acc = (acc + f_23(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_23(int x) {
  int acc = (x + 231) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  acc = (acc + f_24((acc + 234) & 1023)) & 65535;
  g_arr[(acc + 16) & 31] = acc;
  acc = (acc + g_arr[16]) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 180) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_b[(x + 188) & 7](acc, loc[0])) & 65535;
  acc = (acc + f_24(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_24(int x) {
  int acc = (x + 233) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 14) & 255; }
  acc = (acc + tab_b[(x + 81) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_25((acc + 96) & 1023)) & 65535;
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[1] + 76) & 65535;
  acc = (acc + tab_a[(acc + 105) & 7](loc[2])) & 65535;
  acc = (acc + f_25(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_25(int x) {
  int acc = (x + 202) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 18) & 255; }
  g_arr[(acc + 170) & 31] = acc;
  acc = (acc + g_arr[10]) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 75)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 241)) & 65535; }
  n = mk_node(acc + 96, n, 98);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_26(int x) {
  int acc = (x + 585) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 19) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 71)) & 65535; }
  lo.fa = tab_a[5];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 181)) & 65535;
  g_arr[(acc + 71) & 31] = acc;
  acc = (acc + g_arr[7]) & 65535;
  acc = (acc + tab_a[(acc + 73) & 7](loc[1])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_27(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_27(int x) {
  int acc = (x + 319) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 10) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[3] + 211) & 65535;
  n = mk_node(acc + 39, n, 40);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + tab_b[(x + 101) & 7](acc, loc[0])) & 65535;
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_28((acc + 197) & 1023)) & 65535;
  acc = (acc + f_28(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_28(int x) {
  int acc = (x + 901) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 1) & 255; }
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_a[(acc + 29) & 7](loc[3])) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 212)) & 65535; }
  acc = (acc + tab_b[(x + 163) & 7](acc, loc[0])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_29(int x) {
  int acc = (x + 54) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 12) & 255; }
  g_arr[(acc + 190) & 31] = acc;
  acc = (acc + g_arr[30]) & 65535;
  n = mk_node(acc + 126, n, 127);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_30((acc + 15) & 1023)) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 75)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 66) & 65535;
  acc = (acc + f_30(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_30(int x) {
  int acc = (x + 282) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 8) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[3] + 202) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  fp = tab_a[5];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  n = mk_node(acc + 180, n, 182);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + tab_a[(acc + 62) & 7](loc[2])) & 65535;
  acc = (acc + f_31(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_31(int x) {
  int acc = (x + 408) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 5) & 255; }
  acc = (acc + f_32((acc + 75) & 1023)) & 65535;
  acc = (acc + tab_b[(x + 111) & 7](acc, loc[0])) & 65535;
  lo.fa = tab_a[1];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 57)) & 65535;
  g_arr[(acc + 72) & 31] = acc;
  acc = (acc + g_arr[8]) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 240)) & 65535; }
  acc = (acc + f_32(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_32(int x) {
  int acc = (x + 584) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[3] + 37) & 65535;
  fp = tab_a[1];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  lo.fa = tab_a[3];
  lo.fb = tab_b[4];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 115)) & 65535;
  n = mk_node(acc + 188, n, 190);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + tab_a[(acc + 22) & 7](loc[1])) & 65535;
  acc = (acc + f_33(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_33(int x) {
  int acc = (x + 621) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  acc = (acc + tab_b[(x + 45) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_34((acc + 62) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 246)) & 65535; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  g_arr[(acc + 24) & 31] = acc;
  acc = (acc + g_arr[24]) & 65535;
  acc = (acc + f_34(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_34(int x) {
  int acc = (x + 863) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 1) & 255; }
  acc = (acc + tab_a[(acc + 61) & 7](loc[3])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 73) & 65535;
  n = mk_node(acc + 95, n, 96);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 120) & 31] = acc;
  acc = (acc + g_arr[24]) & 65535;
  acc = (acc + tab_b[(x + 95) & 7](acc, loc[0])) & 65535;
  acc = (acc + f_35(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_35(int x) {
  int acc = (x + 357) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 1) & 255; }
  lo.fa = tab_a[4];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 20)) & 65535;
  acc = (acc + f_36((acc + 184) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 170)) & 65535; }
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_36(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_36(int x) {
  int acc = (x + 751) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 9) & 255; }
  loc[3] = (loc[1] * 4 + acc) & 255;
  n = mk_node(acc + 57, n, 57);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 3) & 65535;
  acc = (acc + tab_b[(x + 8) & 7](acc, loc[0])) & 65535;
  acc = (acc + tab_a[(acc + 91) & 7](loc[3])) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_37(int x) {
  int acc = (x + 664) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 4) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 117)) & 65535; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  lo.fa = tab_a[5];
  lo.fb = tab_b[0];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 157)) & 65535;
  g_arr[(acc + 120) & 31] = acc;
  acc = (acc + g_arr[24]) & 65535;
  fp = tab_a[5];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_38(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_38(int x) {
  int acc = (x + 921) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 159)) & 65535; }
  acc = (acc + f_39((acc + 101) & 1023)) & 65535;
  n = mk_node(acc + 128, n, 129);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 20) & 31] = acc;
  acc = (acc + g_arr[20]) & 65535;
  acc = (acc + f_39(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_39(int x) {
  int acc = (x + 825) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[1] + 109) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_a[(acc + 178) & 7](loc[3])) & 65535;
  lo.fa = tab_a[5];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 189)) & 65535;
  acc = (acc + tab_b[(x + 147) & 7](acc, loc[1])) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_40(int x) {
  int acc = (x + 581) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 30) & 255; }
  acc = (acc + tab_b[(x + 186) & 7](acc, loc[1])) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[2] + 160) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 180)) & 65535;
  acc = (acc + tab_a[(acc + 158) & 7](loc[0])) & 65535;
  acc = (acc + f_41(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_41(int x) {
  int acc = (x + 958) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 141)) & 65535; }
  acc = (acc + f_42((acc + 81) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  n = mk_node(acc + 91, n, 93);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 37) & 31] = acc;
  acc = (acc + g_arr[5]) & 65535;
  acc = (acc + f_42(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_42(int x) {
  int acc = (x + 140) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 23) & 255; }
  g_arr[(acc + 114) & 31] = acc;
  acc = (acc + g_arr[18]) & 65535;
  n = mk_node(acc + 183, n, 184);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + tab_b[(x + 242) & 7](acc, loc[1])) & 65535;
  acc = (acc + f_43((acc + 186) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 85)) & 65535; }
  acc = (acc + f_43(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_43(int x) {
  int acc = (x + 356) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  lo.fa = tab_a[3];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 43)) & 65535;
  acc = (acc + tab_a[(acc + 14) & 7](loc[0])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 128) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  free_list(n);
  checksum(acc);
  return acc;
}
int f_44(int x) {
  int acc = (x + 870) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 16) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 47) & 31] = acc;
  acc = (acc + g_arr[15]) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 202) & 65535;
  n = mk_node(acc + 20, n, 21);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_45(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_45(int x) {
  int acc = (x + 324) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 8) & 255; }
  acc = (acc + tab_a[(acc + 231) & 7](loc[0])) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 251)) & 65535;
  acc = (acc + tab_b[(x + 205) & 7](acc, loc[0])) & 65535;
  acc = (acc + f_46((acc + 110) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 55)) & 65535; }
  acc = (acc + f_46(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_46(int x) {
  int acc = (x + 375) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 29) & 255; }
  acc = (acc + f_47((acc + 80) & 1023)) & 65535;
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_a[(acc + 126) & 7](loc[3])) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 164)) & 65535; }
  acc = (acc + tab_b[(x + 137) & 7](acc, loc[0])) & 65535;
  acc = (acc + f_47(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_47(int x) {
  int acc = (x + 367) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 10) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[2] + 108) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 147)) & 65535;
  n = mk_node(acc + 72, n, 74);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 192) & 31] = acc;
  acc = (acc + g_arr[0]) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_48(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_48(int x) {
  int acc = (x + 923) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 4) & 255; }
  acc = (acc + tab_b[(x + 28) & 7](acc, loc[0])) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_49((acc + 50) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 248)) & 65535; }
  lo.fa = tab_a[5];
  lo.fb = tab_b[7];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 149)) & 65535;
  acc = (acc + f_49(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_49(int x) {
  int acc = (x + 322) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 1) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  n = mk_node(acc + 227, n, 228);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 218) & 31] = acc;
  acc = (acc + g_arr[26]) & 65535;
  acc = (acc + tab_a[(acc + 57) & 7](loc[3])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 141) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_50(int x) {
  int acc = (x + 972) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 27) & 255; }
  lo.fa = tab_a[7];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 151)) & 65535;
  acc = (acc + tab_a[(acc + 243) & 7](loc[1])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 3) & 65535;
  n = mk_node(acc + 32, n, 34);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_51((acc + 104) & 1023)) & 65535;
  acc = (acc + f_51(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_51(int x) {
  int acc = (x + 474) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 14) & 255; }
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 158) & 31] = acc;
  acc = (acc + g_arr[30]) & 65535;
  acc = (acc + tab_b[(x + 34) & 7](acc, loc[2])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 41)) & 65535; }
  acc = (acc + f_52(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_52(int x) {
  int acc = (x + 149) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 20) & 255; }
  acc = (acc + f_53((acc + 214) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 36)) & 65535; }
  n = mk_node(acc + 230, n, 231);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_b[(x + 227) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_53(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_53(int x) {
  int acc = (x + 491) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 1) & 255; }
  cp = (char *) loc;
  acc = (acc + cp[3] + 120) & 65535;
  acc = (acc + tab_a[(acc + 235) & 7](loc[0])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  lo.fa = tab_a[0];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 240)) & 65535;
  g_arr[(acc + 174) & 31] = acc;
  acc = (acc + g_arr[14]) & 65535;
  acc = (acc + f_54(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_54(int x) {
  int acc = (x + 350) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 6) & 255; }
  g_arr[(acc + 23) & 31] = acc;
  acc = (acc + g_arr[23]) & 65535;
  n = mk_node(acc + 42, n, 45);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 115)) & 65535; }
  lo.fa = tab_a[7];
  lo.fb = tab_b[2];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 175)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_55(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_55(int x) {
  int acc = (x + 790) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 29) & 255; }
  acc = (acc + tab_b[(x + 187) & 7](acc, loc[2])) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[2] + 38) & 65535;
  loc[2] = (loc[0] * 10 + acc) & 255;
  acc = (acc + tab_a[(acc + 29) & 7](loc[3])) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_56(int x) {
  int acc = (x + 818) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 5) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 142)) & 65535; }
  n = mk_node(acc + 42, n, 45);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 128) & 31] = acc;
  acc = (acc + g_arr[0]) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  lo.fa = tab_a[2];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 18)) & 65535;
  acc = (acc + f_57(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_57(int x) {
  int acc = (x + 298) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 26) & 255; }
  acc = (acc + tab_b[(x + 56) & 7](acc, loc[3])) & 65535;
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_58((acc + 198) & 1023)) & 65535;
  acc = (acc + tab_a[(acc + 103) & 7](loc[3])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 68) & 65535;
  acc = (acc + f_58(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_58(int x) {
  int acc = (x + 767) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 11) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_b[(x + 175) & 7](acc, loc[2])) & 65535;
  lo.fa = tab_a[0];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 200)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 67) & 65535;
  acc = (acc + f_59((acc + 44) & 1023)) & 65535;
  acc = (acc + f_59(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_59(int x) {
  int acc = (x + 865) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 18) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 224)) & 65535; }
  g_arr[(acc + 205) & 31] = acc;
  acc = (acc + g_arr[13]) & 65535;
  acc = (acc + tab_a[(acc + 57) & 7](loc[2])) & 65535;
  n = mk_node(acc + 229, n, 231);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_60(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_60(int x) {
  int acc = (x + 178) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  acc = (acc + f_61((acc + 246) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 37)) & 65535; }
  lo.fa = tab_a[1];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 113)) & 65535;
  g_arr[(acc + 162) & 31] = acc;
  acc = (acc + g_arr[2]) & 65535;
  acc = (acc + tab_a[(acc + 85) & 7](loc[1])) & 65535;
  acc = (acc + f_61(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_61(int x) {
  int acc = (x + 467) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 4) & 255; }
  fp = tab_a[1];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_b[(x + 98) & 7](acc, loc[0])) & 65535;
  n = mk_node(acc + 137, n, 139);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[1] + 251) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_62(int x) {
  int acc = (x + 621) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 9) & 255; }
  n = mk_node(acc + 219, n, 221);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[3] + 32) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 3)) & 65535; }
  fp = tab_a[3];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_63((acc + 69) & 1023)) & 65535;
  acc = (acc + f_63(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_63(int x) {
  int acc = (x + 55) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 5) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  g_arr[(acc + 222) & 31] = acc;
  acc = (acc + g_arr[30]) & 65535;
  acc = (acc + tab_a[(acc + 97) & 7](loc[0])) & 65535;
  lo.fa = tab_a[2];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 18)) & 65535;
  acc = (acc + tab_b[(x + 2) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_64(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_64(int x) {
  int acc = (x + 887) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 29) & 255; }
  g_arr[(acc + 41) & 31] = acc;
  acc = (acc + g_arr[9]) & 65535;
  acc = (acc + tab_b[(x + 123) & 7](acc, loc[3])) & 65535;
  acc = (acc + tab_a[(acc + 105) & 7](loc[2])) & 65535;
  fp = tab_a[1];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[1] + 154) & 65535;
  acc = (acc + f_65(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_65(int x) {
  int acc = (x + 278) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 24) & 255; }
  acc = (acc + f_66((acc + 130) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  lo.fa = tab_a[4];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 164)) & 65535;
  n = mk_node(acc + 246, n, 246);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 150)) & 65535; }
  acc = (acc + f_66(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_66(int x) {
  int acc = (x + 685) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 26) & 255; }
  acc = (acc + f_67((acc + 196) & 1023)) & 65535;
  acc = (acc + tab_a[(acc + 178) & 7](loc[3])) & 65535;
  n = mk_node(acc + 155, n, 155);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 14) & 31] = acc;
  acc = (acc + g_arr[14]) & 65535;
  acc = (acc + tab_b[(x + 30) & 7](acc, loc[3])) & 65535;
  acc = (acc + f_67(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_67(int x) {
  int acc = (x + 736) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 28) & 255; }
  lo.fa = tab_a[7];
  lo.fb = tab_b[7];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 111)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 54) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 99)) & 65535; }
  free_list(n);
  checksum(acc);
  return acc;
}
int f_68(int x) {
  int acc = (x + 982) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 9) & 255; }
  acc = (acc + tab_b[(x + 55) & 7](acc, loc[0])) & 65535;
  acc = (acc + f_69((acc + 248) & 1023)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[1] + 232) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  n = mk_node(acc + 100, n, 101);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_69(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_69(int x) {
  int acc = (x + 909) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 27) & 255; }
  lo.fa = tab_a[6];
  lo.fb = tab_b[1];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 166)) & 65535;
  acc = (acc + tab_a[(acc + 12) & 7](loc[3])) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 79)) & 65535; }
  fp = tab_a[0];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 237) & 31] = acc;
  acc = (acc + g_arr[13]) & 65535;
  acc = (acc + f_70(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_70(int x) {
  int acc = (x + 763) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 16) & 255; }
  acc = (acc + tab_a[(acc + 190) & 7](loc[3])) & 65535;
  loc[2] = (loc[0] * 5 + acc) & 255;
  n = mk_node(acc + 89, n, 89);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 119)) & 65535; }
  free_list(n);
  checksum(acc);
  return acc;
}
int f_71(int x) {
  int acc = (x + 533) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 13) & 255; }
  lo.fa = tab_a[4];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 28)) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_b[(x + 72) & 7](acc, loc[3])) & 65535;
  g_arr[(acc + 137) & 31] = acc;
  acc = (acc + g_arr[9]) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 147) & 65535;
  acc = (acc + f_72(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_72(int x) {
  int acc = (x + 336) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 10) & 255; }
  acc = (acc + f_73((acc + 199) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 174)) & 65535; }
  lo.fa = tab_a[3];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 171)) & 65535;
  acc = (acc + tab_b[(x + 14) & 7](acc, loc[3])) & 65535;
  fp = tab_a[1];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_73(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_73(int x) {
  int acc = (x + 279) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 15) & 255; }
  n = mk_node(acc + 129, n, 130);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + tab_a[(acc + 37) & 7](loc[1])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[1] + 127) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  g_arr[(acc + 243) & 31] = acc;
  acc = (acc + g_arr[19]) & 65535;
  acc = (acc + f_74(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_74(int x) {
  int acc = (x + 250) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 14) & 255; }
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  cp = (char *) loc;
  acc = (acc + cp[3] + 91) & 65535;
  acc = (acc + tab_a[(acc + 26) & 7](loc[3])) & 65535;
  lo.fa = tab_a[2];
  lo.fb = tab_b[5];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 18)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[2], 204)) & 65535; }
  free_list(n);
  checksum(acc);
  return acc;
}
int f_75(int x) {
  int acc = (x + 723) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 10) & 255; }
  acc = (acc + f_76((acc + 105) & 1023)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  n = mk_node(acc + 20, n, 20);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 23) & 31] = acc;
  acc = (acc + g_arr[23]) & 65535;
  acc = (acc + tab_b[(x + 140) & 7](acc, loc[2])) & 65535;
  acc = (acc + f_76(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_76(int x) {
  int acc = (x + 704) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 27) & 255; }
  n = mk_node(acc + 78, n, 79);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 219)) & 65535;
  acc = (acc + tab_a[(acc + 74) & 7](loc[1])) & 65535;
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 238) & 31] = acc;
  acc = (acc + g_arr[14]) & 65535;
  acc = (acc + f_77(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_77(int x) {
  int acc = (x + 17) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  acc = (acc + f_78((acc + 39) & 1023)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[3] + 168) & 65535;
  acc = (acc + tab_b[(x + 27) & 7](acc, loc[2])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 211)) & 65535; }
  acc = (acc + f_78(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_78(int x) {
  int acc = (x + 934) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 27) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 129)) & 65535; }
  acc = (acc + tab_a[(acc + 175) & 7](loc[2])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[3] + 64) & 65535;
  acc = (acc + tab_b[(x + 18) & 7](acc, loc[1])) & 65535;
  lo.fa = tab_a[0];
  lo.fb = tab_b[0];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 232)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_79(int x) {
  int acc = (x + 223) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 12) & 255; }
  g_arr[(acc + 225) & 31] = acc;
  acc = (acc + g_arr[1]) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_80((acc + 132) & 1023)) & 65535;
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  n = mk_node(acc + 141, n, 143);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_80(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_80(int x) {
  int acc = (x + 297) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[3], 16)) & 65535; }
  fp = tab_a[7];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + tab_a[(acc + 143) & 7](loc[1])) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[2] = (ip[3] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 214) & 65535;
  acc = (acc + f_81(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_81(int x) {
  int acc = (x + 627) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 13) & 255; }
  lo.fa = tab_a[4];
  lo.fb = tab_b[7];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 124)) & 65535;
  g_arr[(acc + 225) & 31] = acc;
  acc = (acc + g_arr[1]) & 65535;
  acc = (acc + tab_b[(x + 193) & 7](acc, loc[2])) & 65535;
  n = mk_node(acc + 133, n, 133);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  loc[3] = (loc[1] * 10 + acc) & 255;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_82(int x) {
  int acc = (x + 875) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 7) & 255; }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 157)) & 65535; }
  n = mk_node(acc + 111, n, 111);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 162) & 31] = acc;
  acc = (acc + g_arr[2]) & 65535;
  lo.fa = tab_a[6];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 70)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[2] + 164) & 65535;
  acc = (acc + f_83(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_83(int x) {
  int acc = (x + 919) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 26) & 255; }
  acc = (acc + tab_a[(acc + 69) & 7](loc[3])) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_b[(x + 155) & 7](acc, loc[3])) & 65535;
  acc = (acc + f_84((acc + 92) & 1023)) & 65535;
  acc = (acc + f_84(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_84(int x) {
  int acc = (x + 17) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  g_arr[(acc + 53) & 31] = acc;
  acc = (acc + g_arr[21]) & 65535;
  acc = (acc + tab_b[(x + 54) & 7](acc, loc[2])) & 65535;
  acc = (acc + tab_a[(acc + 201) & 7](loc[2])) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 187)) & 65535; }
  acc = (acc + f_85(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_85(int x) {
  int acc = (x + 511) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 17) & 255; }
  acc = (acc + f_86((acc + 12) & 1023)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 125) & 65535;
  lo.fa = tab_a[0];
  lo.fb = tab_b[3];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 248)) & 65535;
  n = mk_node(acc + 243, n, 243);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[1] = (ip[2] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + f_86(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_86(int x) {
  int acc = (x + 390) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 10) & 255; }
  acc = (acc + f_87((acc + 169) & 1023)) & 65535;
  acc = (acc + tab_b[(x + 221) & 7](acc, loc[1])) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[0] + 145) & 65535;
  vp = (void *) loc;
  ip = (int *) vp;
  ip[3] = (ip[0] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  lo.fa = tab_a[3];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 219)) & 65535;
  acc = (acc + f_87(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_87(int x) {
  int acc = (x + 484) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 18) & 255; }
  n = mk_node(acc + 59, n, 60);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  g_arr[(acc + 198) & 31] = acc;
  acc = (acc + g_arr[6]) & 65535;
  fp = tab_a[2];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 226)) & 65535; }
  acc = (acc + tab_a[(acc + 214) & 7](loc[0])) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_88(int x) {
  int acc = (x + 840) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 25) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[1] + 209) & 65535;
  g_arr[(acc + 151) & 31] = acc;
  acc = (acc + g_arr[23]) & 65535;
  lo.fa = tab_a[5];
  lo.fb = tab_b[6];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 13)) & 65535;
  fp = tab_a[4];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  acc = (acc + f_89(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_89(int x) {
  int acc = (x + 599) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 8) & 255; }
  acc = (acc + tab_b[(x + 195) & 7](acc, loc[0])) & 65535;
  acc = (acc + tab_a[(acc + 32) & 7](loc[0])) & 65535;
  acc = (acc + f_90((acc + 249) & 1023)) & 65535;
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[1], 139)) & 65535; }
  n = mk_node(acc + 8, n, 8);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_90(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_90(int x) {
  int acc = (x + 39) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 8) & 255; }
  n = mk_node(acc + 204, n, 205);
  acc = (acc + n->ops->fa(n->key) + n->visit(n)) & 65535;
  acc = (acc + f_91((acc + 199) & 1023)) & 65535;
  cp = (char *) loc;
  acc = (acc + cp[3] + 67) & 65535;
  fp = tab_a[6];
  for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }
  vp = (void *) n;
  m = (struct node *) vp;
  if (m != 0) { acc = (acc + m->ops->fb(m->vals[0], 35)) & 65535; }
  acc = (acc + f_91(acc & 1023)) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int f_91(int x) {
  int acc = (x + 518) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * 3) & 255; }
  vp = (void *) loc;
  ip = (int *) vp;
  ip[0] = (ip[1] + acc) & 255;
  acc = (acc + sum_arr(loc, 4)) & 65535;
  acc = (acc + tab_a[(acc + 115) & 7](loc[1])) & 65535;
  g_arr[(acc + 118) & 31] = acc;
  acc = (acc + g_arr[22]) & 65535;
  lo.fa = tab_a[7];
  lo.fb = tab_b[2];
  acc = (acc + lo.fa(acc) + lo.fb(acc, 47)) & 65535;
  acc = (acc + tab_b[(x + 182) & 7](acc, loc[2])) & 65535;
  free_list(n);
  checksum(acc);
  return acc;
}
int main() {
  int total = 0;
  int j = 0;
  for (j = 0; j < 32; j = j + 1) { g_arr[j] = j * 3; }
  total = (total + f_0(1)) & 65535;
  total = (total + f_6(2)) & 65535;
  total = (total + f_14(3)) & 65535;
  total = (total + f_19(4)) & 65535;
  total = (total + f_26(5)) & 65535;
  total = (total + f_29(6)) & 65535;
  total = (total + f_37(7)) & 65535;
  total = (total + f_40(8)) & 65535;
  total = (total + f_44(9)) & 65535;
  total = (total + f_50(10)) & 65535;
  total = (total + f_56(11)) & 65535;
  total = (total + f_62(12)) & 65535;
  total = (total + f_68(13)) & 65535;
  total = (total + f_71(14)) & 65535;
  total = (total + f_75(15)) & 65535;
  total = (total + f_79(16)) & 65535;
  total = (total + f_82(17)) & 65535;
  total = (total + f_88(18)) & 65535;
  checksum(total);
  print_int(total);
  return 0;
}
