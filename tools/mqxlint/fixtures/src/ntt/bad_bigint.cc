/** Fixture: a per-entry long division on a table-derivation path. */

namespace {

void
deriveCompanions(Table& t, const Dw& q)
{
    for (unsigned long k = 0; k < t.n; ++k)
        t.sh[k] = mod::shoupPrecompute(t.w[k], q); // setup-bigint
}

} // namespace
