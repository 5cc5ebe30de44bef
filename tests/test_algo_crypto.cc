/**
 * @file
 * Known-answer tests for the cryptographic kernels: FIPS-197 AES
 * vectors (through both the portable block path and the dispatched
 * ECB path, plus a differential test between them), RFC 1321 MD5
 * vectors, FIPS 180-4 SHA vectors, digests at every padding edge, and
 * serialization round-trips used by accelerator preemption.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "accel/algo/aes128.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/sha.hh"

using namespace optimus::algo;

namespace {

std::string
hex(const std::uint8_t *data, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
        s.push_back(digits[data[i] >> 4]);
        s.push_back(digits[data[i] & 0xf]);
    }
    return s;
}

/** @p n bytes of a fixed pattern, for digests across padding edges. */
std::vector<std::uint8_t>
patterned(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return v;
}

/** Expected digest of patterned(len). */
struct LengthVector
{
    std::size_t len;
    const char *digest;
};

TEST(Aes128Test, Fips197AppendixB)
{
    // FIPS-197 Appendix B example.
    Aes128::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                       0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                       0x4f, 0x3c};
    std::uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                              0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                              0xe0, 0x37, 0x07, 0x34};
    std::uint8_t ecb[16];
    std::memcpy(ecb, block, 16);
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "3925841d02dc09fbdc118597196a0b32");
    aes.encryptEcb(ecb, 16);
    EXPECT_EQ(hex(ecb, 16), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, Fips197AppendixCExample)
{
    // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...
    Aes128::Key key;
    for (int i = 0; i < 16; ++i)
        key[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i);
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = static_cast<std::uint8_t>(i * 0x11);
    std::uint8_t ecb[16];
    std::memcpy(ecb, block, 16);
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.encryptEcb(ecb, 16);
    EXPECT_EQ(hex(ecb, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, EcbEncryptsEveryBlockIndependently)
{
    Aes128::Key key{};
    Aes128 aes(key);
    std::uint8_t buf[64] = {};
    aes.encryptEcb(buf, sizeof(buf));
    // Identical plaintext blocks yield identical ciphertext blocks.
    EXPECT_EQ(0, std::memcmp(buf, buf + 16, 16));
    EXPECT_EQ(0, std::memcmp(buf, buf + 32, 16));
}

TEST(Aes128Test, EcbMatchesBlockwiseReference)
{
    // encryptEcb may take a hardware path; encryptBlock is the
    // portable byte-wise oracle. Lengths cover 0..4 KiB in steps of
    // 16, most with a short tail that must be left untouched.
    std::mt19937_64 rng(20200316);
    for (std::size_t trial = 0; trial < 1028; ++trial) {
        Aes128::Key key;
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng());
        const std::size_t whole = 16 * (trial % 257);
        const std::size_t len = whole + trial % 16;
        std::vector<std::uint8_t> plain(len);
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng());

        Aes128 aes(key);
        std::vector<std::uint8_t> got = plain;
        aes.encryptEcb(got.data(), got.size());
        std::vector<std::uint8_t> want = plain;
        for (std::size_t off = 0; off < whole; off += 16)
            aes.encryptBlock(want.data() + off);
        ASSERT_EQ(got, want) << "trial " << trial << " len " << len;
    }
}

TEST(Md5Test, Rfc1321Vectors)
{
    auto check = [](const std::string &in, const std::string &want) {
        Md5::Digest d = Md5::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), want) << "input: " << in;
    };
    check("", "d41d8cd98f00b204e9800998ecf8427e");
    check("a", "0cc175b9c0f1b6a831c399e269772661");
    check("abc", "900150983cd24fb0d6963f7d28e17f72");
    check("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    check("abcdefghijklmnopqrstuvwxyz",
          "c3fcd3d76192e4007dfb496cca67e13b");
    check("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123"
          "456789",
          "d174ab98d277d9f5a5611c2c9f419d9f");
    check("1234567890123456789012345678901234567890123456789012345"
          "6789012345678901234567890",
          "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, PaddingBoundaryLengths)
{
    // Digests from Python hashlib over patterned(len); the lengths
    // straddle the points where padding spills into another block.
    static const LengthVector kVectors[] = {
        {0, "d41d8cd98f00b204e9800998ecf8427e"},
        {55, "c9e512626618c9980ef21a96597af94c"},
        {56, "ecde7caa08e9f5657c863df107cac60a"},
        {63, "2f0301069e1c40af7f6c8f843b1b13f2"},
        {64, "b6bf87c24b1bc334e2541387a92b981b"},
        {111, "e145219ba825c566b3905b008ac4c378"},
        {112, "78e1458b5371b996a9d07fec4f8edd17"},
        {127, "27670172396247fa5f68637f13f8933d"},
        {128, "3e85b70ffc8df5c735ecf2a8f14f1bee"},
        {1000, "2b1e78d5765de9e10495a01412a1cf22"},
    };
    for (const auto &v : kVectors) {
        std::vector<std::uint8_t> in = patterned(v.len);
        auto d = Md5::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), v.digest) << "len " << v.len;
    }
}

TEST(Md5Test, IncrementalMatchesOneShot)
{
    std::string input(1000, 'x');
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<char>('a' + i % 26);

    Md5 inc;
    for (std::size_t off = 0; off < input.size(); off += 37) {
        std::size_t n = std::min<std::size_t>(37, input.size() - off);
        inc.update(input.data() + off, n);
    }
    EXPECT_EQ(inc.finish(), Md5::hash(input.data(), input.size()));
}

TEST(Md5Test, SerializeRoundTrip)
{
    std::string part1 = "The quick brown fox ";
    std::string part2 = "jumps over the lazy dog";

    Md5 a;
    a.update(part1.data(), part1.size());
    optimus::sim::StateWriter w;
    a.serialize(w);
    std::vector<std::uint8_t> blob = w.take();

    Md5 b;
    optimus::sim::StateReader r(blob);
    b.deserialize(r);
    EXPECT_TRUE(r.ok());
    b.update(part2.data(), part2.size());
    a.update(part2.data(), part2.size());
    EXPECT_EQ(a.finish(), b.finish());
}

/** Reject @p H state that is cut short or overwritten with 0xff;
 *  the latter puts the buffer fill past the block, which the next
 *  update() would turn into a wrapped free-space count. */
template <typename H>
void
expectMalformedStateRejected()
{
    H a;
    a.update("abc", 3);
    optimus::sim::StateWriter w;
    a.serialize(w);
    std::vector<std::uint8_t> blob = w.take();

    std::vector<std::uint8_t> cut(blob.begin(), blob.end() - 1);
    optimus::sim::StateReader cut_r(cut);
    H().deserialize(cut_r);
    EXPECT_FALSE(cut_r.ok());

    std::vector<std::uint8_t> ones(blob.size(), 0xff);
    optimus::sim::StateReader ones_r(ones);
    H b;
    b.deserialize(ones_r);
    EXPECT_FALSE(ones_r.ok());
    // The rejected fill never reached the hasher.
    b.reset();
    b.update("abc", 3);
    EXPECT_EQ(b.finish(), H::hash("abc", 3));
}

TEST(Md5Test, DeserializeRejectsMalformedState)
{
    expectMalformedStateRejected<Md5>();
}

TEST(Sha256Test, Fips180Vectors)
{
    auto d1 = Sha256::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410f"
              "f61f20015ad");
    auto d2 = Sha256::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495"
              "991b7852b855");
    std::string two_blocks =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    auto d3 = Sha256::hash(two_blocks.data(), two_blocks.size());
    EXPECT_EQ(hex(d3.data(), d3.size()),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ec"
              "edd419db06c1");
}

TEST(Sha256Test, PaddingBoundaryLengths)
{
    // Digests from Python hashlib over patterned(len); the lengths
    // straddle the points where padding spills into another block.
    static const LengthVector kVectors[] = {
        {0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
         "a495991b7852b855"},
        {55,
         "8aa994584139d128848eeebc4e815639ba5ab6e6e3957419"
         "5a63ac4f14f7c43b"},
        {56,
         "ad574708f75c044c9b85de64cb568ee7711ff4f36448c624"
         "2f053ba8f6cc2b63"},
        {63,
         "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65ab"
         "c41b818b4d2fe076"},
        {64,
         "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c"
         "919952ad211339dd"},
        {111,
         "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c"
         "4528ac7073a2da45"},
        {112,
         "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b1"
         "76f8cff3509d379e"},
        {127,
         "192409cd280e14b743642ad1343fbd3e82d9305de72c0781"
         "17745a679210cc3d"},
        {128,
         "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b5"
         "5a4dad0665302356"},
        {1000,
         "5097e7d587352f5097062ae679f37bda5802d9f875aba14c"
         "8cb4d1a188ada179"},
    };
    for (const auto &v : kVectors) {
        std::vector<std::uint8_t> in = patterned(v.len);
        auto d = Sha256::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), v.digest) << "len " << v.len;
    }
}

TEST(Sha256Test, DoubleHashMatchesComposition)
{
    std::string msg = "bitcoin block header";
    auto once = Sha256::hash(msg.data(), msg.size());
    auto twice = Sha256::hash(once.data(), once.size());
    EXPECT_EQ(Sha256::doubleHash(msg.data(), msg.size()), twice);
}

TEST(Sha512Test, Fips180Vectors)
{
    auto d1 = Sha512::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9e"
              "eee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423"
              "643ce80e2a9ac94fa54ca49f");
    auto d2 = Sha512::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4"
              "a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd"
              "47417a81a538327af927da3e");
}

TEST(Sha512Test, PaddingBoundaryLengths)
{
    // Digests from Python hashlib over patterned(len); the lengths
    // straddle the points where padding spills into another block.
    static const LengthVector kVectors[] = {
        {0,
         "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc"
         "83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f"
         "63b931bd47417a81a538327af927da3e"},
        {55,
         "330eb5e81b4d722cae1e0efbf883efb180c3e346d2b3b797"
         "dafc90409583ed35af65dc2d7974a353f0c21663e196b60d"
         "3ee5a2c70c50b7b3bccdb93a5dbce6bf"},
        {56,
         "1b5b63bfd5420b2dc480abce3dbdb3e19e5f9d4fabffba77"
         "64883937eaae878a55362c938c141712c44c3076c3fabb2c"
         "60814c2994c311c33049a8d6de2a8898"},
        {63,
         "b16f76c30db64b5ee1ef166d2d37e13ff6cee9fd88bae9ba"
         "283cd58e0a2133b220a76db56279406461f84ce2cffd1d11"
         "6d38fd9f38fc5df18770a987ff695499"},
        {64,
         "4c7aba3659929c4fd87604c532a3b5f174d0626b2d661dbb"
         "bfac76c97a49a5a7789d2c68324c754f66bf629fa72054f3"
         "34feaad8b1cf4c885ae03a1e634afc18"},
        {111,
         "da780d8338a8a920ceb6892cb4ecbb0cc0c66956269aadd5"
         "dd0f48790a00857bd975890f3b2955a317738cc7a770820c"
         "29f922ffbc22020f1909d594cc987d1b"},
        {112,
         "053182f7fa4e59f8636e415a77ed4fdc650f0a43834c9d35"
         "adf899599c3ab9c4153f02ff50bd01888060cd36a6fa12d9"
         "db242fc35164c80135613514186d5843"},
        {127,
         "a7a75593826fd37d4e60f6101eabb9f8ab1cf4d5319ebc80"
         "5266d5da8deb5097de1a235fc5d9d3d73c50ac100ffc7508"
         "9fb454674ab61232091bd19cbdc67396"},
        {128,
         "df007a08f3aaae47e0c92ef840ecd43645ae6098c819f2a4"
         "a66174ef1cd49e5c6dfccf0616895e570b7564af641de586"
         "3dff9f89c752913d30cf0ecf678e1635"},
        {1000,
         "b41d42e106eca6bf57123566b7ed1550c37d33af23afbfa8"
         "e302dfd44c988b3003a26b4140ef42f535e66ea424e7c4a3"
         "1616307269e6d520a6508f726da23d0a"},
    };
    for (const auto &v : kVectors) {
        std::vector<std::uint8_t> in = patterned(v.len);
        auto d = Sha512::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), v.digest) << "len " << v.len;
    }
}

TEST(Sha512Test, IncrementalAndSerializeRoundTrip)
{
    std::string input(4096, 0);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<char>(i % 251);

    Sha512 a;
    a.update(input.data(), 1000);
    optimus::sim::StateWriter w;
    a.serialize(w);
    std::vector<std::uint8_t> blob = w.take();
    Sha512 b;
    optimus::sim::StateReader r(blob);
    b.deserialize(r);
    EXPECT_TRUE(r.ok());
    a.update(input.data() + 1000, input.size() - 1000);
    b.update(input.data() + 1000, input.size() - 1000);
    EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha512Test, DeserializeRejectsMalformedState)
{
    expectMalformedStateRejected<Sha512>();
}

} // namespace
